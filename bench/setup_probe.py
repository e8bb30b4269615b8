"""Set-up time of one fresh interpreter: import numpy and unigraph, answer one warm-up input.

Run by `run.py` as ``python3 bench/setup_probe.py SRC WORKLOAD WARMUP_FILE``;
prints the elapsed seconds.  Unlike the answer times this is not calibrated:
import time did not follow the calibration kernel's drift (see NOTES.md).
`warm_up` is also what `run.py` calls before it starts timing, so both
pay the same one-off costs.
"""
from __future__ import annotations

import contextlib
import io
import sys
import time

DECISION_VERBS = {"battery-scale": "analyze", "certify-small": "certify"}
WARMUP_GRAPH = "4\n0 1 1 1\n1 0 1 1\n1 1 0 1\n1 1 1 0\n"  # J-I(4): reaches the solver
WARMUP_BASE = [[1, 1], [1, 0]]


def warm_up(workload: str, warmup_file: str) -> None:
    if workload in DECISION_VERBS:
        import unigraph.cli

        with contextlib.redirect_stdout(io.StringIO()):
            unigraph.cli.main([DECISION_VERBS[workload], "--in", warmup_file])
    else:
        from unigraph.linedigraphs import Multidigraph, line_digraph, recognize_line_digraph

        recognize_line_digraph(line_digraph(Multidigraph(WARMUP_BASE)).digraph)


def main() -> None:
    src, workload, warmup_file = sys.argv[1:4]
    start = time.perf_counter()
    sys.path.insert(0, src)
    import numpy  # noqa: F401
    import unigraph.cli  # noqa: F401
    import unigraph.linedigraphs  # noqa: F401

    warm_up(workload, warmup_file)
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main()
