"""Shared scoring machinery of the physics scorers.

``VinaScorer`` and ``MMGBSARescorer`` differ only in their term weights
(``_weighted_terms``) and the label of their deterministic error stream;
everything else — ``score``, ``score_batch`` and ``score_many`` over the
one pairwise-interaction kernel (:meth:`InteractionModel.batch_kernel`),
the per-(site, ligand) kernel binding and the memoized systematic-error
draws — lives here once.  Classes mixing this in provide
``_interactions`` (an
:class:`~repro.chem.complexes.InteractionModel`), ``_weighted_terms``,
``noise_scale``, ``seed``, an ``_error_cache`` dict and the
``error_label`` class attribute.  (Distinct from
``repro.models.fusion.BatchScoringMixin``, which batches neural-network
inference — this one batches the physics scorers' pairwise kernel.)
"""

from __future__ import annotations

import numpy as np

from repro.chem.complexes import PK_TO_KCAL, ProteinLigandComplex, kernel_groups
from repro.utils.rng import derive_seed


class KernelScoringMixin:
    """Batched scoring over the shared pairwise-interaction kernel."""

    #: label mixed into the deterministic per-complex error stream
    error_label: str

    def make_batch_kernel(self, site, ligands, complex_ids, pose_id: int = 0):
        """Batch-scoring kernel bound to one site and ``C`` ``(ligand, complex_id)`` pairs.

        The pairwise-interaction constants and the per-compound
        systematic-error draws are resolved once; the returned closure
        scores a stacked ``(R, ΣN, 3)`` pose tensor (the ligands' atoms
        end to end, :meth:`InteractionModel.batch_kernel`) into ``C * R``
        scores, compound-major — the Monte-Carlo docker calls it once per
        lockstep step.
        """
        terms_kernel = self._interactions.batch_kernel(site, ligands)
        errors = np.array([self._systematic_error_for(cid, int(pose_id)) for cid in complex_ids])
        errors = (errors * PK_TO_KCAL)[:, None]

        def kernel(coords: np.ndarray) -> np.ndarray:
            raw = self._weighted_terms(terms_kernel(coords))
            return (raw.reshape(len(errors), -1) + errors).reshape(-1)

        return kernel

    def score(self, complex_: ProteinLigandComplex) -> float:
        """Score of one complex in kcal/mol (negative = favourable)."""
        coords = complex_.ligand_coordinates()
        return float(
            self.score_batch(complex_.site, complex_.ligand, coords, complex_.complex_id, complex_.pose_id)[0]
        )

    def score_batch(
        self, site, ligand, coords, complex_id: str = "", pose_id: int = 0
    ) -> np.ndarray:
        """Scores of ``P`` rigid-body poses of one ligand.

        ``coords`` is a stacked ``(P, num_atoms, 3)`` pose tensor (one
        ``(num_atoms, 3)`` pose is promoted to ``P = 1``); every pose
        takes the systematic error of ``(complex_id, pose_id)``.
        """
        coords = np.asarray(coords, dtype=np.float64)
        if coords.ndim == 2:
            coords = coords[None, :, :]
        return self.make_batch_kernel(site, [ligand], [complex_id], pose_id)(coords)

    def score_many(self, complexes) -> np.ndarray:
        """Scores of heterogeneous complexes, in input order.

        Complexes are grouped by binding site only.  Each group's ligands
        go end to end as one ``(1, ΣN, 3)`` row through
        :meth:`InteractionModel.batch_kernel`, split into runs of at most
        :data:`~repro.chem.complexes.KERNEL_CHUNK_PAIRS` pairs by
        :func:`~repro.chem.complexes.kernel_groups`.  Each ligand reduces
        its own block, so neither its companions nor the split move a
        bit: the result equals :meth:`score` per complex.
        """
        complexes = list(complexes)
        out = np.empty(len(complexes))
        by_site: dict[int, list[int]] = {}
        for index, complex_ in enumerate(complexes):
            by_site.setdefault(id(complex_.site), []).append(index)
        for indices in by_site.values():
            site = complexes[indices[0]].site
            for group in kernel_groups([(i, complexes[i].ligand) for i in indices], site.num_atoms):
                members = [complexes[i] for i, _ in group]
                row = np.concatenate([c.ligand_coordinates() for c in members])[None]
                terms = self._interactions.batch_kernel(site, [c.ligand for c in members])(row)
                errors = np.array([self._systematic_error_for(c.complex_id, c.pose_id) for c in members])
                out[[i for i, _ in group]] = self._weighted_terms(terms) + errors * PK_TO_KCAL
        return out

    # ------------------------------------------------------------------ #
    def _systematic_error_for(self, complex_id: str, pose_id: int) -> float:
        """Memoized error draw — constructing a fresh ``default_rng`` per MC
        scoring call is measurable overhead, and the value only depends on
        ``(complex_id, pose_id)``."""
        cache_key = (complex_id, pose_id)
        cached = self._error_cache.get(cache_key)
        if cached is None:
            key = derive_seed(self.seed, self.error_label, complex_id, pose_id)
            cached = float(np.random.default_rng(key).normal(scale=self.noise_scale))
            self._error_cache[cache_key] = cached
        return cached
