#!/usr/bin/env python3
"""Matrix-sum edge statistics: the trend that rules out a naive scalar
transfer of the iterated-logarithm normalization."""

import sys

from nclil.cli import main

if __name__ == "__main__":
    args = ["demo-semicircular", "--size", "200", "--checkpoints", "100,1000,10000",
            "--out", "out/demo-semicircular"]
    sys.exit(main(args + sys.argv[1:]))
