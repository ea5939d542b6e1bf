"""Benchmark of the seqnorm pipeline: workloads, oracles and a bench-side tracer."""
