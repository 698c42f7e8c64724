"""Numeric-feature binning driven by bootstrap decision trees.

Each numeric column is replaced by an ordinal categorical column. Cut points
are per-depth averages of the split thresholds the bootstrap trees chose for
that feature, rounded to the nearest natural number; a feature no tree ever
selects falls back to a single cut at its rounded median. At most max_bins
bins survive per feature (most frequent depths kept first).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import CATEGORICAL, NUMERIC, Dataset
from .errors import DataError, ParameterError
from .tree import Branch, LearnerConfig, fit, walk


def _round_half_away(x: float) -> int:
    # .5 ties round away from zero (natural-number rounding of averages).
    return int(math.floor(x + 0.5)) if x >= 0 else -int(math.floor(-x + 0.5))


@dataclass(frozen=True)
class FeatureBinning:
    feature: str
    cuts: tuple[int, ...]  # ascending
    source: str  # tree-thresholds | median-fallback | unbinned-constant
    labels: tuple[str, ...]


@dataclass(frozen=True)
class BinningReport:
    per_feature: dict[str, FeatureBinning]
    warnings: tuple[str, ...]


def _bin_labels(cuts) -> tuple[str, ...]:
    if not cuts:
        return ()
    labels = [f"<={cuts[0]}"]
    labels += [f"({a},{b}]" for a, b in zip(cuts[:-1], cuts[1:])]
    labels.append(f">{cuts[-1]}")
    return tuple(labels)


def bin_numeric_features(
    data: Dataset, n_trees: int = 5, max_bins: int = 7, seed: int = 0
) -> tuple[Dataset, BinningReport]:
    """Derive per-feature cut points from n_trees bootstrap trees and apply them."""
    if max_bins < 2:
        raise ParameterError(f"max_bins must be >= 2, got {max_bins}")
    numeric = data.numeric_features()
    if not numeric:
        raise DataError("dataset has no numeric features to bin")
    n = data.n
    numeric_view = Dataset(
        data.instance_ids.copy(),
        numeric,
        {f: NUMERIC for f in numeric},
        {f: data.columns[f].copy() for f in numeric},
        data.labels.copy(),
    )
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed])))
    minleaf = min(0.49, max(0.01, 1.0 / n))
    stats: dict[tuple[str, int], list[float]] = {}
    for t in range(n_trees):
        boot = rng.integers(0, n, size=n)
        sample = numeric_view.take(boot)
        config = LearnerConfig(
            max_height=max_bins,
            minleaf_fraction=minleaf,
            feature_subsample="all",
            criterion="entropy",
            seed=int(rng.integers(0, 2**31 - 1)),
        )
        try:
            grown = fit(sample, config)
        except DataError:
            continue
        for node, path in walk(grown.root):
            if isinstance(node, Branch):
                key = (node.clause.feature, len(path))
                stats.setdefault(key, []).append(float(node.clause.value))

    per_feature: dict[str, FeatureBinning] = {}
    warnings: list[str] = []
    for feature in numeric:
        col = data.columns[feature]
        if np.unique(col).size <= 1:
            warnings.append(f"constant numeric column {feature!r} left unbinned")
            per_feature[feature] = FeatureBinning(feature, (), "unbinned-constant", ())
            continue
        candidates = [
            (len(vals), depth, _round_half_away(float(np.mean(vals))))
            for (f, depth), vals in stats.items()
            if f == feature
        ]
        if candidates:
            # most frequent depths first, shallower depth breaking ties
            candidates.sort(key=lambda c: (-c[0], c[1]))
            cuts: list[int] = []
            for _, _, cut in candidates:
                if cut not in cuts:
                    cuts.append(cut)
                if len(cuts) >= max_bins - 1:
                    break
            cuts.sort()
            source = "tree-thresholds"
        else:
            cuts = [_round_half_away(float(np.median(col)))]
            source = "median-fallback"
        per_feature[feature] = FeatureBinning(feature, tuple(cuts), source, _bin_labels(cuts))

    report = BinningReport(per_feature, tuple(warnings))
    return apply_binning(data, report), report


def apply_binning(data: Dataset, report: BinningReport) -> Dataset:
    """Apply previously derived cuts (e.g. train-side cuts to the test split)."""
    columns = {}
    kinds = {}
    for name in data.feature_names:
        binning = report.per_feature.get(name)
        if binning is None or not binning.cuts:
            columns[name] = data.columns[name].copy()
            kinds[name] = data.feature_kinds[name]
            continue
        cuts = np.array(binning.cuts, dtype=float)
        idx = np.searchsorted(cuts, data.columns[name], side="left")
        # the width of the longest label present, as np.array(list of str) gives
        width = np.array([len(label) for label in binning.labels])[idx].max(initial=1)
        columns[name] = np.array(binning.labels, dtype=f"<U{width}")[idx]
        kinds[name] = CATEGORICAL
    return Dataset(
        data.instance_ids.copy(), data.feature_names, kinds, columns, data.labels.copy()
    )
