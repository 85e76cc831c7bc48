"""Repository benchmark: workloads, tracing and harness (see README.md)."""
