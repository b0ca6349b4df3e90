"""Benchmark harness: sigma/iteration sweeps, selection, test evaluation.

A sweep runs every algorithm configuration on every manifest item, computes
the speech SDR at each recorded iterate, and collects one record per
(configuration, item).  Selection picks the configuration with the best
mean validation SDR; ties go to fewer iterations, then smaller sigma.
Records are keyed and sorted before CSV emission so results are identical
regardless of worker count.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import algorithms
from .algorithms import DEFAULT_MAX_ITERATIONS, RULES, SIGMA_INF, AlgorithmSpec, Family, _is_int, _is_real
from .metrics import sdr
from .signal_io import (
    ManifestItem,
    degrade_magnitudes,
    load_manifest,
    make_mixture,
    oracle_magnitudes,
    read_wav,
)
from .spectral import StftConfig, _set_threads, istft, stft, usable_cpus

CSV_HEADER = "algorithm,sigma,iterations,isnr_db,degradation,split,item_id,sdr_db,wall_ms"

DEFAULT_SIGMA_GRID = [0.0, 0.01, 0.1, 0.3, 1.0, 3.0, 10.0, 100.0, SIGMA_INF]
DEFAULT_FAMILIES = [f.value for f in Family]
DEFAULT_DEGRADATION_LEVELS = [0.0, 0.2, 0.5]


def format_sigma(sigma: float) -> str:
    return "inf" if sigma == SIGMA_INF else f"{sigma:g}"


def parse_sigma(text: str) -> float:
    if str(text).strip().lower() == "inf":
        return SIGMA_INF
    try:
        value = float(text) if isinstance(text, str) or _is_real(text) else np.nan
    except ValueError:
        value = np.nan
    if not np.isfinite(value) or value < 0:
        raise ValueError(f"invalid sigma: {text}")
    return value


@dataclass
class SweepConfig:
    manifest: str
    output_dir: str
    families: list[str] = field(default_factory=lambda: list(DEFAULT_FAMILIES))
    sigma_grid: list[float] = field(default_factory=lambda: list(DEFAULT_SIGMA_GRID))
    max_iterations: int = DEFAULT_MAX_ITERATIONS
    weight_scheme: str = "magratio"
    degradation_levels: list[float] = field(default_factory=lambda: list(DEFAULT_DEGRADATION_LEVELS))
    jobs: int | None = None  # worker processes; None = one per usable CPU
    record_timing: bool = True

    def __post_init__(self):
        for key in ("manifest", "output_dir"):
            if not isinstance(getattr(self, key), str):
                raise ValueError(f"{key} must be a string, got {getattr(self, key)!r}")
        for key in ("families", "sigma_grid", "degradation_levels"):
            value = getattr(self, key)
            if not isinstance(value, (list, tuple)) or not value:
                raise ValueError(f"{key} must be a non-empty list, got {value!r}")
        if not all(_is_real(v) and v >= 0 for v in self.sigma_grid):
            raise ValueError(f"sigma_grid must hold numbers >= 0, got {self.sigma_grid!r}")
        if not all(_is_real(v) and 0 <= v < SIGMA_INF for v in self.degradation_levels):
            raise ValueError(
                f"degradation_levels must hold finite numbers >= 0, got {self.degradation_levels!r}"
            )
        if not _is_int(self.max_iterations) or self.max_iterations < 1:
            raise ValueError(f"max_iterations must be an integer >= 1, got {self.max_iterations!r}")
        if self.jobs is not None and (not _is_int(self.jobs) or self.jobs < 1):
            raise ValueError(f"jobs must be an integer >= 1 or null, got {self.jobs!r}")
        if self.weight_scheme not in ("uniform", "magratio"):
            raise ValueError(f"weight_scheme must be 'uniform' or 'magratio', got {self.weight_scheme!r}")
        if not isinstance(self.record_timing, bool):
            raise ValueError(f"record_timing must be true or false, got {self.record_timing!r}")
        self.families = [Family(f).value for f in self.families]
        for key in ("families", "sigma_grid", "degradation_levels"):  # each entry once, compared as parsed
            if len(set(getattr(self, key))) < len(getattr(self, key)):
                raise ValueError(f"{key} must not repeat an entry, got {getattr(self, key)!r}")


def load_sweep_config(path) -> SweepConfig:
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict):
        raise ValueError("config must be a JSON object")
    unknown = sorted(set(doc) - {f.name for f in fields(SweepConfig)})
    if unknown:
        raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
    missing = [key for key in ("manifest", "output_dir") if key not in doc]
    if missing:
        raise ValueError(f"missing config key(s): {', '.join(missing)}")
    if isinstance(doc.get("sigma_grid"), list):  # else SweepConfig names the bad value
        doc["sigma_grid"] = [parse_sigma(s) for s in doc["sigma_grid"]]
    base = Path(path).parent
    cfg = SweepConfig(**doc)
    # Paths in the config file are relative to the file itself.
    if not Path(cfg.manifest).is_absolute():
        cfg.manifest = str(base / cfg.manifest)
    if not Path(cfg.output_dir).is_absolute():
        cfg.output_dir = str(base / cfg.output_dir)
    return cfg


@dataclass(frozen=True)
class ItemRecord:
    algorithm: str
    sigma: float
    iterations: int
    isnr_db: float
    degradation: float
    split: str
    item_id: str
    sdr_db: float
    wall_ms: float

    def sort_key(self):
        return astuple(self)[:7]  # every field up to item_id

    def csv_line(self) -> str:
        return ",".join(
            [
                self.algorithm,
                format_sigma(self.sigma),
                str(self.iterations),
                f"{self.isnr_db:g}",
                f"{self.degradation:g}",
                self.split,
                self.item_id,
                f"{self.sdr_db:.6f}",
                f"{self.wall_ms:.3f}",
            ]
        )


class ResultTable:
    """Per-item records in sort-key order."""

    def __init__(self, records: list[ItemRecord]):
        self.records = sorted(records, key=ItemRecord.sort_key)

    def write_csv(self, path) -> None:
        lines = [CSV_HEADER] + [r.csv_line() for r in self.records]
        Path(path).write_text("\n".join(lines) + "\n")


# A job is one configuration plus the iterates to record: (spec, record_iters).
_Job = tuple[AlgorithmSpec, tuple[int, ...]]


def _sweep_jobs(cfg: SweepConfig) -> list[_Job]:
    """One job per family and sigma: the grid where sigma enters the update,
    else 0.  A row with a fixed iteration count runs and records that count;
    the others run ``max_iterations`` and record every iterate."""
    jobs = []
    for name in cfg.families:
        rule = RULES[Family(name)]
        if rule.fixed_iterations is None:
            iterations, record = cfg.max_iterations, tuple(range(1, cfg.max_iterations + 1))
        else:
            iterations, record = rule.fixed_iterations, (rule.fixed_iterations,)
        for sigma in cfg.sigma_grid if rule.sigma_enters else [0.0]:
            jobs.append((AlgorithmSpec(name, sigma, cfg.weight_scheme, iterations), record))
    return jobs


@dataclass(frozen=True)
class _ItemTask:
    root: Path  # the manifest's directory, which the item's paths are relative to
    item: ManifestItem
    degradation: float
    record_timing: bool
    stft_cfg: StftConfig
    jobs: tuple[_Job, ...]

    @property
    def item_id(self) -> str:
        return self.item.clean_path.rsplit(".", 1)[0]


def _process_item(task: _ItemTask) -> list[ItemRecord]:
    """The item's records at every job; a ValueError or FloatingPointError names the item."""
    item, level, stft_cfg = task.item, task.degradation, task.stft_cfg
    try:
        clean = read_wav(task.root / item.clean_path)
        noise = read_wav(task.root / item.noise_path)
        if clean.sample_rate != stft_cfg.sample_rate:
            raise ValueError(f"WAV rate {clean.sample_rate} Hz differs from the manifest's {stft_cfg.sample_rate} Hz")
        mix = make_mixture(clean, noise, item.isnr_db, item.seed)
        mixture_spec = stft(mix.mixture.samples, stft_cfg)
        mags = oracle_magnitudes([clean, mix.scaled_noise], stft_cfg)
        mags = degrade_magnitudes(mags, level, (item.seed, int(round(level * 1e6))))  # per item and level

        records = []
        for spec, record_iters in task.jobs:
            # Iterate k's speech signal comes from run's G(S_k) where run computed
            # one, else from an istft probe.  wall_ms is run's clock: it leaves out
            # this observer and G(S_k), which counts in iterate k+1.
            def observe(k, sources, signals, seconds):
                if k in record_iters:
                    speech = istft(sources[0], stft_cfg, len(clean)) if signals is None else signals[0][: len(clean)]
                    records.append(ItemRecord(spec.family.value, spec.sigma, k, item.isnr_db, level, item.split,
                                              task.item_id, sdr(clean.samples, speech),
                                              seconds * 1e3 if task.record_timing else 0.0))

            algorithms.run(spec, mixture_spec, mags, stft_cfg, on_iterate=observe, record_losses=False)
        return records
    except (ValueError, FloatingPointError) as exc:  # an OSError names its file already
        kind = FloatingPointError if isinstance(exc, FloatingPointError) else ValueError
        raise kind(f"{task.item_id}: {exc}") from exc


def _run_tasks(tasks: list[_ItemTask], jobs: int | None) -> ResultTable:
    """Every task's records; the first failed task in task order stops the run with its error."""
    workers = min(usable_cpus() if jobs is None else jobs, len(tasks))
    if workers <= 1:
        return ResultTable([record for task in tasks for record in _process_item(task)])
    share = max(1, usable_cpus() // workers)  # CPUs for each worker's transforms and block passes
    pool = ProcessPoolExecutor(workers, initializer=_set_threads, initargs=(share,))
    try:
        return ResultTable([record for result in pool.map(_process_item, tasks) for record in result])
    finally:
        pool.shutdown(cancel_futures=True)  # after a failure, cancels the tasks not yet handed to a worker


def _build_tasks(cfg: SweepConfig, split: str, algo_jobs: list[_Job]) -> list[_ItemTask]:
    manifest = load_manifest(cfg.manifest)
    stft_cfg = manifest.stft_config()
    tasks = [_ItemTask(manifest.root, item, level, cfg.record_timing, stft_cfg, tuple(algo_jobs))
             for item in manifest.split_items(split) for level in cfg.degradation_levels]
    if not tasks:
        raise ValueError(f"manifest has no {split} items")
    return tasks


def run_sweep(cfg: SweepConfig) -> ResultTable:
    """Run the full configuration grid on the validation split of the manifest."""
    return _run_tasks(_build_tasks(cfg, "validation", _sweep_jobs(cfg)), cfg.jobs)


def select_best(table: ResultTable, algorithm: str) -> tuple[float, int]:
    """Best (sigma, iterations) by mean validation SDR, pooled over items.

    Ties are broken by fewer iterations, then smaller sigma.
    """
    groups: dict[tuple[float, int], list[float]] = {}
    for rec in table.records:
        if rec.algorithm == algorithm:
            groups.setdefault((rec.sigma, rec.iterations), []).append(rec.sdr_db)
    if not groups:
        raise ValueError(f"no records for algorithm {algorithm!r}")
    candidates = [(float(np.mean(v)), sigma, iters) for (sigma, iters), v in groups.items()]
    _, sigma, iters = min(candidates, key=lambda c: (-c[0], c[2], c[1]))
    return sigma, iters


def evaluate_test(selections: dict[str, tuple[float, int]], cfg: SweepConfig) -> ResultTable:
    """Run each algorithm at its selected configuration on the test split."""
    jobs = []
    for name in cfg.families:
        if name not in selections:
            raise ValueError(f"no selection for algorithm {name!r}")
        sigma, iters = selections[name]
        jobs.append((AlgorithmSpec(name, sigma, cfg.weight_scheme, iters), (iters,)))
    return _run_tasks(_build_tasks(cfg, "test", jobs), cfg.jobs)


def run_benchmark(cfg: SweepConfig) -> dict[str, Path]:
    """Full protocol: validation sweep, selection, test evaluation, CSVs."""
    _build_tasks(cfg, "test", [])  # an empty test split fails here, not after the sweep
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    validation = run_sweep(cfg)
    selections = {name: select_best(validation, name) for name in cfg.families}
    test = evaluate_test(selections, cfg)
    paths = {
        "validation": out_dir / "validation.csv",
        "test": out_dir / "test.csv",
        "selections": out_dir / "selections.json",
    }
    validation.write_csv(paths["validation"])
    test.write_csv(paths["test"])
    paths["selections"].write_text(
        json.dumps(
            {
                name: {"sigma": format_sigma(sigma), "iterations": iters}
                for name, (sigma, iters) in sorted(selections.items())
            },
            indent=2,
        )
        + "\n"
    )
    return paths
