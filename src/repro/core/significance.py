"""Parameter significance from an evolved population (§4.2).

"System analysts benefit, not only from speed and accuracy, but also from
an additional source of insight as the genetic search identifies
determinants of performance."  As models evolve, the population
increasingly prefers certain variables, transformations, and interactions;
this module turns a final population into that insight:

* :func:`inclusion_frequency` — how often each variable appears at all;
* :func:`transform_histogram` — per-variable distribution over transform
  kinds (the data behind Table 3);
* :func:`modal_transforms` / :func:`table3_rows` — the Table 3 view;
* :func:`interaction_matrix` — the symmetric pair-frequency matrix behind
  Figure 4, plus region totals (software-software, software-hardware,
  hardware-hardware);
* :class:`SignificanceReport` — everything above, computed once.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.chromosome import Chromosome
from repro.core.transforms import TABLE3_ROW_ORDER, TRANSFORM_LABELS, TransformKind


def inclusion_frequency(
    population: Sequence[Chromosome], names: Sequence[str]
) -> Dict[str, float]:
    """Fraction of models that include each variable (any transform)."""
    _check(population, names)
    counts = np.zeros(len(names))
    for chromosome in population:
        counts += np.array(chromosome.genes) > 0
    return dict(zip(names, (counts / len(population)).tolist()))


def transform_histogram(
    population: Sequence[Chromosome], names: Sequence[str]
) -> Dict[str, Dict[str, int]]:
    """Per-variable counts over transform kinds across the population."""
    _check(population, names)
    hist: Dict[str, Dict[str, int]] = {
        name: {label: 0 for label in TABLE3_ROW_ORDER} for name in names
    }
    for chromosome in population:
        for name, gene in zip(names, chromosome.genes):
            hist[name][TRANSFORM_LABELS[TransformKind(gene)]] += 1
    return hist


def modal_transforms(
    population: Sequence[Chromosome], names: Sequence[str]
) -> Dict[str, str]:
    """The most common transform per variable (ties: stronger transform)."""
    hist = transform_histogram(population, names)
    modal = {}
    for name, counts in hist.items():
        best = max(
            counts.items(),
            key=lambda item: (item[1], TABLE3_ROW_ORDER.index(item[0])),
        )
        modal[name] = best[0]
    return modal


def table3_rows(
    population: Sequence[Chromosome], names: Sequence[str]
) -> Dict[str, List[str]]:
    """Variables grouped by their modal transform — the paper's Table 3."""
    modal = modal_transforms(population, names)
    rows: Dict[str, List[str]] = {label: [] for label in TABLE3_ROW_ORDER}
    for name in names:
        rows[modal[name]].append(name)
    return rows


def interaction_matrix(
    population: Sequence[Chromosome], names: Sequence[str]
) -> np.ndarray:
    """Symmetric (p, p) matrix of interaction appearance counts (Figure 4)."""
    _check(population, names)
    p = len(names)
    counts = np.zeros((p, p), dtype=int)
    for chromosome in population:
        for i, j in chromosome.interactions:
            counts[i, j] += 1
            counts[j, i] += 1
    return counts


def interaction_regions(
    counts: np.ndarray, n_software: int
) -> Dict[str, int]:
    """Appearance totals by region: sw-sw, sw-hw, hw-hw."""
    p = counts.shape[0]
    regions = {"sw-sw": 0, "sw-hw": 0, "hw-hw": 0}
    for i in range(p):
        for j in range(i + 1, p):
            if counts[i, j] == 0:
                continue
            if j < n_software:
                regions["sw-sw"] += int(counts[i, j])
            elif i >= n_software:
                regions["hw-hw"] += int(counts[i, j])
            else:
                regions["sw-hw"] += int(counts[i, j])
    return regions


def top_interactions(
    counts: np.ndarray, names: Sequence[str], k: int = 10
) -> List[Tuple[str, str, int]]:
    """The k most frequent interaction pairs, descending."""
    pairs = []
    p = len(names)
    for i in range(p):
        for j in range(i + 1, p):
            if counts[i, j] > 0:
                pairs.append((names[i], names[j], int(counts[i, j])))
    pairs.sort(key=lambda item: -item[2])
    return pairs[:k]


@dataclasses.dataclass
class SignificanceReport:
    """Everything the evolved population says about performance drivers."""

    names: Tuple[str, ...]
    n_models: int
    inclusion: Dict[str, float]
    modal: Dict[str, str]
    rows: Dict[str, List[str]]
    interactions: np.ndarray
    regions: Dict[str, int]
    top_pairs: List[Tuple[str, str, int]]

    @staticmethod
    def from_population(
        population: Sequence[Chromosome],
        names: Sequence[str],
        n_software: int,
    ) -> "SignificanceReport":
        counts = interaction_matrix(population, names)
        return SignificanceReport(
            names=tuple(names),
            n_models=len(population),
            inclusion=inclusion_frequency(population, names),
            modal=modal_transforms(population, names),
            rows=table3_rows(population, names),
            interactions=counts,
            regions=interaction_regions(counts, n_software),
            top_pairs=top_interactions(counts, names),
        )

    def describe(self) -> str:
        lines = [f"Parameter significance over {self.n_models} models"]
        lines.append("  variables by modal transformation:")
        for label in TABLE3_ROW_ORDER:
            variables = self.rows[label]
            lines.append(
                f"    {label:<18s} {', '.join(variables) if variables else '-'}"
            )
        lines.append(
            "  interaction appearances: "
            + ", ".join(f"{k}={v}" for k, v in self.regions.items())
        )
        for a, b, count in self.top_pairs[:5]:
            lines.append(f"    {a} x {b}: {count}")
        return "\n".join(lines)


def _check(population: Sequence[Chromosome], names: Sequence[str]) -> None:
    if not population:
        raise ValueError("population is empty")
    for chromosome in population:
        if chromosome.n_variables != len(names):
            raise ValueError(
                f"chromosome has {chromosome.n_variables} genes for "
                f"{len(names)} names"
            )
