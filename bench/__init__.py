"""Benchmark for the residuum CLI and its layers; see bench/README.md."""
