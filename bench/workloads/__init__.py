"""The four benchmark workloads; each module exposes ``SIZES``, ``ALIASES``,
``setup(run)``, ``run(run, state)`` and ``teardown(run, state)``."""

NAMES = ("store_analytics", "structure_parallel", "gnn_minibatch", "serve_mutating")
