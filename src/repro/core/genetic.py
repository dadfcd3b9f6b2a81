"""Genetic search for model specifications (§3.4, and the §3.3 pseudo-code).

The outer loops of the paper's heuristic: a population of chromosomes
evolves for G generations.  Each generation,

* every model's fitness is evaluated by the per-application inner loop
  (:mod:`repro.core.fitness`), which is embarrassingly parallel and can be
  distributed over worker processes (the paper parallelizes with R's doMC);
* the best N% propagate unchanged (elitism);
* the remainder is produced from tournament-selected parents by crossovers
  C1/C2/C3 (12.5% each) and mutations M1/M2 (5% each) — the paper's
  experimentally effective rates — with at least one operator guaranteed
  per offspring so the non-elite fraction is genuinely new material.

Because the heuristic "accommodates new data by updating the model
specification and fitting new regression coefficients", the search can be
*resumed* from a previous population when profiles accrue
(:meth:`GeneticSearch.update`), which is how §3.3 model updates are
realized.
"""

from __future__ import annotations

import dataclasses
import inspect
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core.chromosome import (
    Chromosome,
    crossover_create_interaction,
    crossover_interaction,
    crossover_variable,
    mutate_interaction,
    mutate_variable,
)
from repro.core.dataset import ProfileDataset
from repro.core.engine import FitnessEngine, evaluate_chunk, publish_dataset
from repro.core.fitness import FitnessResult, derive_app_splits
from repro.core.model import InferredModel
from repro.parallel import parallel_starmap, resolve_workers

CROSSOVER_RATE = 0.125   # per crossover operator (C1, C2, C3)
MUTATION_RATE = 0.05     # per mutation operator (M1, M2)
DEFAULT_POPULATION = 50
DEFAULT_GENERATIONS = 20
DEFAULT_ELITE_FRACTION = 0.25


@dataclasses.dataclass
class GenerationRecord:
    """Progress snapshot after one generation."""

    generation: int
    best_fitness: float
    mean_fitness: float
    best_sum_error: float


@dataclasses.dataclass
class SearchResult:
    """Outcome of a genetic search."""

    best_chromosome: Chromosome
    best_fitness: FitnessResult
    population: List[Chromosome]
    fitnesses: List[FitnessResult]
    history: List[GenerationRecord]

    def best_model(self, dataset: ProfileDataset) -> InferredModel:
        """Fit the winning specification on the full dataset."""
        spec = self.best_chromosome.to_spec(dataset.variable_names)
        return InferredModel.fit(spec, dataset)

    def ranked(self) -> List[Tuple[Chromosome, FitnessResult]]:
        """(chromosome, fitness) pairs, best first."""
        order = np.argsort([f.fitness for f in self.fitnesses])
        return [(self.population[i], self.fitnesses[i]) for i in order]


class GeneticSearch:
    """Evolves model specifications against a profile dataset.

    Parameters
    ----------
    population_size:
        Number of candidate models per generation (the paper examines "the
        50 best models", so the default population is 50).
    elite_fraction:
        Fraction N% of each generation that survives unchanged.
    evaluator:
        Fitness function ``(spec, dataset, rng) -> FitnessResult``.  When
        ``None`` (the default) candidates are scored by the batched
        :class:`repro.core.engine.FitnessEngine`, with results memoized by
        chromosome for the duration of a search (sound because the
        train/validation splits are fixed per search).  Pass
        :func:`repro.core.fitness.evaluate_spec` explicitly to score with
        the reference per-application inner loop; evaluators accepting a
        ``splits`` keyword receive the search's fixed splits.
    n_workers:
        If > 1, candidate models of a generation are evaluated in a process
        pool (the inner loop is embarrassingly parallel, §4.2).  ``None``
        (the default) resolves from ``$REPRO_WORKERS`` via
        :func:`repro.parallel.resolve_workers`.  Every candidate is scored
        with its own deterministically derived seed, so the search result
        is identical at any worker count.
    """

    def __init__(
        self,
        population_size: int = DEFAULT_POPULATION,
        elite_fraction: float = DEFAULT_ELITE_FRACTION,
        evaluator: Optional[Callable] = None,
        n_workers: Optional[int] = None,
        seed: int = 0,
    ):
        if population_size < 4:
            raise ValueError("population must have at least 4 models")
        if not 0.0 < elite_fraction < 1.0:
            raise ValueError("elite_fraction must be in (0, 1)")
        self.population_size = population_size
        self.elite_fraction = elite_fraction
        self.evaluator = evaluator
        self.n_workers = resolve_workers(n_workers)
        self.rng = np.random.default_rng(seed)
        self._population: List[Chromosome] = []
        self._split_seed = seed
        self._splits = None
        self._engine: Optional[FitnessEngine] = None
        self._published = None
        self._memo: Dict[Chromosome, FitnessResult] = {}
        self.last_eval_stats: Dict[str, float] = {}

    # -- public API ---------------------------------------------------------------

    def run(
        self,
        dataset: ProfileDataset,
        generations: int = DEFAULT_GENERATIONS,
        initial_population: Optional[Sequence[Chromosome]] = None,
        progress: Optional[Callable[[GenerationRecord], None]] = None,
    ) -> SearchResult:
        """Evolve for ``generations`` and return the final population."""
        with obs.span("ga.run"):
            return self._run(dataset, generations, initial_population, progress)

    def _run(
        self,
        dataset: ProfileDataset,
        generations: int,
        initial_population: Optional[Sequence[Chromosome]],
        progress: Optional[Callable[[GenerationRecord], None]],
    ) -> SearchResult:
        names = dataset.variable_names
        n_vars = len(names)
        # One split seed — and therefore one fixed train/validation split
        # per application — for the whole search.  Fixed splits remove
        # fitness noise between identical specs and make memoization sound.
        self._split_seed = int(self.rng.integers(0, 2**31))
        self._splits = derive_app_splits(dataset, self._split_seed)
        self._engine = None
        self._published = None
        self._memo = {}
        self.last_eval_stats = {
            "candidates_scored": 0,
            "memo_hits": 0,
            "engine_evaluations": 0,
            "gram_fits": 0,
            "lstsq_fallbacks": 0,
            "failed_fits": 0,
            "column_hits": 0,
            "column_builds": 0,
        }
        if initial_population is not None:
            population = list(initial_population)
            population += [
                Chromosome.random(n_vars, self.rng)
                for _ in range(self.population_size - len(population))
            ]
            population = population[: self.population_size]
        else:
            population = [
                Chromosome.random(n_vars, self.rng)
                for _ in range(self.population_size)
            ]

        history: List[GenerationRecord] = []
        fitnesses = self._evaluate_population(population, dataset, names)
        for generation in range(1, generations + 1):
            order = np.argsort([f.fitness for f in fitnesses])
            population = [population[i] for i in order]
            fitnesses = [fitnesses[i] for i in order]
            record = GenerationRecord(
                generation=generation,
                best_fitness=fitnesses[0].fitness,
                mean_fitness=float(np.mean([f.fitness for f in fitnesses])),
                best_sum_error=fitnesses[0].sum_error,
            )
            history.append(record)
            obs.counter("ga.generations").inc()
            obs.gauge("ga.best_fitness").set(record.best_fitness)
            obs.gauge("ga.mean_fitness").set(record.mean_fitness)
            if progress is not None:
                progress(record)
            if generation == generations:
                break
            with obs.span("ga.generation"):
                population = self._next_generation(population)
                fitnesses = self._evaluate_population(population, dataset, names)

        order = np.argsort([f.fitness for f in fitnesses])
        population = [population[i] for i in order]
        fitnesses = [fitnesses[i] for i in order]
        self._population = population
        if self._engine is not None:
            self._merge_stats(self._engine.stats())
        scored = self.last_eval_stats["candidates_scored"]
        hits = self.last_eval_stats["memo_hits"]
        columns = (
            self.last_eval_stats["column_hits"]
            + self.last_eval_stats["column_builds"]
        )
        self.last_eval_stats["memo_hit_rate"] = hits / scored if scored else 0.0
        self.last_eval_stats["column_hit_rate"] = (
            self.last_eval_stats["column_hits"] / columns if columns else 0.0
        )
        return SearchResult(
            best_chromosome=population[0],
            best_fitness=fitnesses[0],
            population=population,
            fitnesses=fitnesses,
            history=history,
        )

    def update(
        self,
        dataset: ProfileDataset,
        generations: int = 5,
        progress: Optional[Callable[[GenerationRecord], None]] = None,
    ) -> SearchResult:
        """Resume the search on an updated dataset (§3.3 model updates).

        Warm-starts from the last population, so a handful of generations
        re-specializes the model to newly profiled software.
        """
        if not self._population:
            return self.run(dataset, generations, progress=progress)
        return self.run(
            dataset,
            generations,
            initial_population=self._population,
            progress=progress,
        )

    # -- internals -----------------------------------------------------------------

    def _evaluate_population(
        self,
        population: List[Chromosome],
        dataset: ProfileDataset,
        names: Tuple[str, ...],
    ) -> List[FitnessResult]:
        # Common random numbers: every candidate (in every generation of a
        # run) is scored on the *same* fixed train/validation splits, so
        # fitness differences reflect the specifications rather than split
        # luck and elite fitness is stable across generations.  Validation
        # in the experiments is always against independently sampled
        # profiles.
        with obs.span("ga.evaluate_population"):
            if self.evaluator is not None:
                return self._evaluate_with_callable(population, dataset, names)
            return self._evaluate_with_engine(population, dataset, names)

    def _evaluate_with_engine(
        self,
        population: List[Chromosome],
        dataset: ProfileDataset,
        names: Tuple[str, ...],
    ) -> List[FitnessResult]:
        """Engine path: memoized, chunk-parallel batched evaluation.

        Identical chromosomes (elites, convergent crossovers, duplicates
        within a generation) are scored once per search; the remainder is
        chunked so each worker computes the engine's design basis once per
        chunk rather than once per candidate.
        """
        memo = self._memo
        self.last_eval_stats["candidates_scored"] += len(population)
        pending = [c for c in dict.fromkeys(population) if c not in memo]
        self.last_eval_stats["memo_hits"] += len(population) - len(pending)
        obs.counter("ga.candidates_scored").inc(len(population))
        obs.counter("ga.memo_hits").inc(len(population) - len(pending))
        if pending:
            if self.n_workers <= 1 or len(pending) <= 1:
                if self._engine is None:
                    self._engine = FitnessEngine(dataset, self._split_seed)
                results = self._engine.evaluate_many(
                    [c.to_spec(names) for c in pending]
                )
            else:
                n_chunks = min(self.n_workers, len(pending))
                chunks = [pending[i::n_chunks] for i in range(n_chunks)]
                # Publish the dataset's arrays to the mmap store once per
                # search: each chunk then ships a StoredDataset whose
                # matrix/targets cross the pool boundary as column
                # references, not pickled copies.  With the store disabled
                # this is the dataset itself, exactly as before.
                if self._published is None:
                    self._published = publish_dataset(dataset)
                jobs = [
                    (
                        self._published,
                        self._split_seed,
                        [c.to_spec(names) for c in chunk],
                    )
                    for chunk in chunks
                ]
                # Every chunk's obs snapshot is merged back in chunk order.
                # supervised: a worker that dies (or hangs) mid-chunk gets
                # its chunk resubmitted to a fresh pool — fitness evaluation
                # survives worker loss with bit-identical results because
                # chunks are pure functions of (dataset, seed, specs).
                outcomes = parallel_starmap(
                    evaluate_chunk,
                    jobs,
                    n_workers=self.n_workers,
                    supervised=True,
                )
                by_chromosome: Dict[Chromosome, FitnessResult] = {}
                for chunk, (chunk_results, chunk_stats) in zip(chunks, outcomes):
                    by_chromosome.update(zip(chunk, chunk_results))
                    self._merge_stats(chunk_stats)
                results = [by_chromosome[c] for c in pending]
            memo.update(zip(pending, results))
        return [memo[c] for c in population]

    def _evaluate_with_callable(
        self,
        population: List[Chromosome],
        dataset: ProfileDataset,
        names: Tuple[str, ...],
    ) -> List[FitnessResult]:
        """Custom-evaluator path (including the reference oracle).

        Evaluators that accept a ``splits`` keyword are given the search's
        fixed per-application splits; others keep the historical
        ``(spec, dataset, rng)`` contract.
        """
        self.last_eval_stats["candidates_scored"] += len(population)
        try:
            takes_splits = "splits" in inspect.signature(self.evaluator).parameters
        except (TypeError, ValueError):
            takes_splits = False
        splits = self._splits if takes_splits else None
        jobs = [
            (self.evaluator, c.to_spec(names), dataset, self._split_seed, splits)
            for c in population
        ]
        return parallel_starmap(_evaluate_job, jobs, n_workers=self.n_workers)

    def _merge_stats(self, stats: Dict[str, float]) -> None:
        merged = self.last_eval_stats
        merged["engine_evaluations"] += stats.get("specs_evaluated", 0)
        merged["gram_fits"] += stats.get("gram_fits", 0)
        merged["lstsq_fallbacks"] += stats.get("lstsq_fallbacks", 0)
        merged["failed_fits"] += stats.get("failed_fits", 0)
        merged["column_hits"] += stats.get("column_hits", 0)
        merged["column_builds"] += stats.get("column_builds", 0)

    def _next_generation(self, ranked: List[Chromosome]) -> List[Chromosome]:
        """Elites survive; the rest are crossover/mutation offspring.

        Parents are drawn from the whole ranked population by binary
        tournament (better of two uniform picks), which keeps selection
        pressure without collapsing the population onto the elites —
        preserving the interaction diversity the paper observes in its
        best models (Figure 4).  Every offspring is guaranteed at least
        one operator application so the non-elite fraction is genuinely
        "populated with crossovers, mutations" (§3.3 pseudo-code).
        """
        n_elite = max(2, int(round(self.elite_fraction * self.population_size)))
        children: List[Chromosome] = list(ranked[:n_elite])
        rng = self.rng

        def tournament() -> Chromosome:
            i, j = rng.integers(0, len(ranked), size=2)
            return ranked[int(min(i, j))]  # ranked is sorted best-first

        operators = [
            lambda a, b: crossover_variable(a, b, rng),
            lambda a, b: crossover_interaction(a, b, rng),
            lambda a, b: crossover_create_interaction(a, b, rng),
            lambda a, b: (mutate_interaction(a, rng), b),
            lambda a, b: (mutate_variable(a, rng), b),
        ]
        while len(children) < self.population_size:
            a, b = tournament(), tournament()
            applied = False
            if rng.random() < CROSSOVER_RATE:
                a, b = crossover_variable(a, b, rng)
                applied = True
            if rng.random() < CROSSOVER_RATE:
                a, b = crossover_interaction(a, b, rng)
                applied = True
            if rng.random() < CROSSOVER_RATE:
                a, b = crossover_create_interaction(a, b, rng)
                applied = True
            if rng.random() < MUTATION_RATE:
                a = mutate_interaction(a, rng)
                applied = True
            if rng.random() < MUTATION_RATE:
                a = mutate_variable(a, rng)
                applied = True
            if rng.random() < MUTATION_RATE:
                b = mutate_interaction(b, rng)
                applied = True
            if rng.random() < MUTATION_RATE:
                b = mutate_variable(b, rng)
                applied = True
            if not applied:
                a, b = operators[int(rng.integers(0, len(operators)))](a, b)
            children.append(a)
            if len(children) < self.population_size:
                children.append(b)
        return children


def _evaluate_job(evaluator, spec, dataset, seed, splits=None) -> FitnessResult:
    """Top-level evaluation shim (picklable for multiprocessing)."""
    rng = np.random.default_rng(seed)
    if splits is not None:
        return evaluator(spec, dataset, rng, splits=splits)
    return evaluator(spec, dataset, rng)
