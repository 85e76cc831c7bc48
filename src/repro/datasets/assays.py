"""Experimental assay simulators for the SARS-CoV-2 campaign.

The paper's experimental follow-up measures *percent inhibition* at a
fixed compound concentration: a FRET / SDS-PAGE protease activity assay
at 100 µM for the two Mpro sites and a pseudo-typed virus / BLI
competition assay at 10 µM for the two spike sites.  The reproduction
maps a compound's latent binding affinity to fractional target occupancy
at the assay concentration and then to a noisy percent-inhibition
readout.

Crucially, the *assay-relevant* affinity is not identical to the
structure-derived latent affinity: each compound-target pair carries a
deterministic "biology penalty" (solubility, aggregation, off-mechanism
effects, cell permeability for the infection assay) that structure-based
scoring cannot see.  This is what produces the paper's regime of mostly
inactive compounds, low (0-0.3) correlations between any scoring method
and percent inhibition, and a ~10 % hit rate above the 33 % inhibition
threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.chem.protein import BindingSite
from repro.utils.rng import derive_seed


@dataclass
class AssayResult:
    """Measured percent inhibition of one compound against one target site."""

    compound_id: str
    site_name: str
    percent_inhibition: float
    concentration_um: float
    assay_type: str


class InhibitionAssay:
    """Simulated percent-inhibition assay for one binding site.

    Parameters
    ----------
    site:
        The target binding site.
    concentration_um:
        Compound concentration in micro-molar (100 for Mpro, 10 for spike).
    assay_type:
        Label recorded on results (``"FRET"``, ``"pseudovirus"``, ``"BLI"``...).
    biology_penalty_mean:
        Mean of the exponential per-compound penalty (in pK units) applied
        to the latent affinity before computing occupancy. Larger values
        make hits rarer and decouple structure-based predictions from
        assay outcomes.
    readout_noise:
        Standard deviation of the additive percent-inhibition noise.
    hill_coefficient:
        Hill coefficient of the occupancy curve.
    seed:
        Seed of the deterministic penalty / noise streams.
    """

    def __init__(
        self,
        site: BindingSite,
        concentration_um: float,
        assay_type: str = "FRET",
        biology_penalty_mean: float = 2.6,
        readout_noise: float = 6.0,
        hill_coefficient: float = 1.0,
        seed: int = 11,
    ) -> None:
        if concentration_um <= 0:
            raise ValueError("concentration must be positive")
        self.site = site
        self.concentration_um = float(concentration_um)
        self.assay_type = assay_type
        self.biology_penalty_mean = float(biology_penalty_mean)
        self.readout_noise = float(readout_noise)
        self.hill_coefficient = float(hill_coefficient)
        self.seed = int(seed)

    # ------------------------------------------------------------------ #
    def effective_pk(self, compound_id: str, structural_pk: float) -> float:
        """Assay-relevant affinity: structural affinity minus the biology penalty."""
        key = derive_seed(self.seed, "biology", self.site.name, compound_id)
        rng = np.random.default_rng(key)
        penalty = rng.exponential(self.biology_penalty_mean)
        return float(structural_pk - penalty)

    def occupancy(self, pk: float) -> float:
        """Fractional target occupancy at the assay concentration."""
        kd_um = 10.0 ** (6.0 - pk)  # Kd in micro-molar
        ratio = (self.concentration_um / kd_um) ** self.hill_coefficient
        return float(ratio / (1.0 + ratio))

    def measure_pk(self, compound_id: str, structural_pk: float) -> AssayResult:
        """Measure percent inhibition given the compound's structural affinity."""
        pk = self.effective_pk(compound_id, structural_pk)
        expected = 100.0 * self.occupancy(pk)
        key = derive_seed(self.seed, "readout", self.site.name, compound_id)
        noise = np.random.default_rng(key).normal(scale=self.readout_noise)
        observed = float(np.clip(expected + noise, 0.0, 100.0))
        return AssayResult(
            compound_id=compound_id,
            site_name=self.site.name,
            percent_inhibition=observed,
            concentration_um=self.concentration_um,
            assay_type=self.assay_type,
        )


#: Assay concentrations per SARS-CoV-2 site (µM), from §5.1/§5.2.
ASSAY_CONCENTRATIONS_UM = {
    "protease1": 100.0,
    "protease2": 100.0,
    "spike1": 10.0,
    "spike2": 10.0,
}

#: Assay modality per site.
ASSAY_TYPES = {
    "protease1": "FRET",
    "protease2": "FRET",
    "spike1": "pseudovirus",
    "spike2": "BLI",
}


def make_assay_panel(
    sites: dict[str, BindingSite],
    seed: int = 11,
    biology_penalty_mean: float = 2.6,
    readout_noise: float = 6.0,
) -> dict[str, InhibitionAssay]:
    """Create the four-site assay panel used by the campaign analysis."""
    panel: dict[str, InhibitionAssay] = {}
    for name, site in sites.items():
        panel[name] = InhibitionAssay(
            site=site,
            concentration_um=ASSAY_CONCENTRATIONS_UM.get(name, 10.0),
            assay_type=ASSAY_TYPES.get(name, "FRET"),
            biology_penalty_mean=biology_penalty_mean,
            readout_noise=readout_noise,
            seed=derive_seed(seed, "assay", name),
        )
    return panel


@dataclass
class CampaignAssayTable:
    """Percent-inhibition results of experimentally tested compounds."""

    results: list[AssayResult] = field(default_factory=list)

    def for_site(self, site_name: str) -> list[AssayResult]:
        return [r for r in self.results if r.site_name == site_name]

    def inhibition_of(self, site_name: str, compound_id: str) -> float | None:
        for result in self.results:
            if result.site_name == site_name and result.compound_id == compound_id:
                return result.percent_inhibition
        return None

    def hit_rate(self, threshold: float = 33.0) -> float:
        """Fraction of measurements above the inhibition threshold."""
        if not self.results:
            return 0.0
        hits = sum(1 for r in self.results if r.percent_inhibition > threshold)
        return hits / len(self.results)


def simulate_campaign_assays(
    panel: dict[str, InhibitionAssay],
    tested: dict[str, list[tuple[str, float]]],
) -> CampaignAssayTable:
    """Run the assay panel over the selected compounds.

    Parameters
    ----------
    panel:
        Per-site assays (from :func:`make_assay_panel`).
    tested:
        Mapping ``site_name -> [(compound_id, structural_pk), ...]`` of the
        compounds purchased for experimental evaluation against that site,
        with the structural affinity of their best pose.
    """
    table = CampaignAssayTable()
    for site_name, compounds in tested.items():
        if site_name not in panel:
            raise KeyError(f"no assay configured for site '{site_name}'")
        assay = panel[site_name]
        for compound_id, structural_pk in compounds:
            table.results.append(assay.measure_pk(compound_id, structural_pk))
    return table
