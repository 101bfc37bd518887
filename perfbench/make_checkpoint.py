"""Preparation step of the serve-paper workload, in its own process so
that the serving run's peak RSS does not include training.

    python3 perfbench/make_checkpoint.py <workdir> <seed>
"""

import sys

from run import bootstrap

if __name__ == "__main__":
    bootstrap()
    from workloads import make_serve_checkpoint

    make_serve_checkpoint(sys.argv[1], int(sys.argv[2]))
