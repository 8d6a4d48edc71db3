"""The canonical send→stable benchmark (see perf/README.md)."""
