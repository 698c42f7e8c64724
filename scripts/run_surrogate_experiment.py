#!/usr/bin/env python3
"""Desk-scale experiments on the bundled Adult-like surrogate (no external data).

--which 1 audits one fixed tree repeatedly per (mechanism, epsilon) cell;
--which 2 refits a tree per run over the minleaf x epsilon grid against the
random baseline; --which 2.1 adds the UAR-AASPE heatmap to experiment 2.
Pass --paper-scale for the full grids and 50 runs per cell; use the
`privfair experiment` CLI instead if you have the real benchmark files.

Usage: python scripts/run_surrogate_experiment.py [--which 1|2|2.1] [--out DIR]
       [--seed N] [--rows N] [--paper-scale] [--encoding ethnicity|sex|sex-ethnicity]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from privfair.data import DATASET_ENCODINGS, encode_sensitive, stratified_split
from privfair.experiments import preset_config, run_and_save
from privfair.synth import make_adult_surrogate


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--which", choices=("1", "2", "2.1"), default="1")
    parser.add_argument("--out", help="default results/experiment1 or results/experiment2")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rows", type=int, default=30162)
    parser.add_argument("--encoding", default="ethnicity",
                        choices=("ethnicity", "sex", "sex-ethnicity"))
    parser.add_argument("--paper-scale", action="store_true")
    args = parser.parse_args()

    ds, sens = make_adult_surrogate(args.rows, seed=args.seed)
    train_idx, test_idx = stratified_split(ds.labels, seed=args.seed)
    train, test = ds.take(train_idx), ds.take(test_idx)
    table = encode_sensitive(sens.take(test_idx), DATASET_ENCODINGS["adult"][args.encoding])

    config = preset_config(args.which, args.paper_scale, args.seed)
    out = args.out or f"results/experiment{args.which[0]}"
    for kind, path in run_and_save(args.which, train, test, table, config, out,
                                   progress=True).items():
        print(f"{kind}: {path}")


if __name__ == "__main__":
    main()
