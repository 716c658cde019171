"""The repo's one benchmark: four seeded workloads, end-to-end and
per-layer metrics, declared in ``BENCHMARK.json`` at the repo root.
See ``README.md`` in this directory."""
