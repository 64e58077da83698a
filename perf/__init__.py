"""The repo's benchmark: pinned mp workloads measured from outside (see README.md)."""
