"""Fuzz ``cli.main``: every input ends in a documented exit code (0, 2, 3 or 4), and no exception escapes.

Three kinds of input: argv for each subcommand; config and manifest JSON whose keys come from the
rule tables that check them; and damaged WAV and SPGM files from ``test_signal_io``'s generators.
Every valid draw is small (8 kHz clips of 0.1 s, window 64, hop 16, one iteration, ``jobs`` null or
1), so it runs in well under a second; no drawn value asks for a long run or a large allocation
that would succeed.
"""

import copy
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specinv import StftConfig
from specinv.cli import _ALGOS, EXIT_IO, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, WEIGHT_SCHEMES, _build_parser, main
from specinv.experiment import _CONFIG_VALUES
from specinv.signal_io import (
    _ITEM_VALUES,
    _MANIFEST_VALUES,
    TimeSignal,
    oracle_magnitudes,
    read_wav,
    write_spectrogram,
    write_wav,
)
from specinv.synth import generate_dataset
from test_signal_io import FMT_MUTATIONS, _fmt, _wav, mutated_spgms, mutated_wavs

EXIT_CODES = {EXIT_OK, EXIT_IO, EXIT_USAGE, EXIT_NUMERIC}
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy's overflow and empty-mean notes on junk input
CFG = StftConfig(window_length=64, hop=16, sample_rate=8000)


def run_main(argv) -> int:
    code = main([str(a) for a in argv])  # an exception that escapes fails the test
    assert code in EXIT_CODES
    return code


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A 1+1-item dataset at window 64, hop 16, a mixture with its two magnitude files, and bad files."""
    root = tmp_path_factory.mktemp("cli_fuzz")
    manifest = generate_dataset(root / "data", n_validation=1, n_test=1, seed=3, duration=0.1,
                                noise_duration=0.15, sample_rate=CFG.sample_rate)
    doc = json.loads(manifest.read_text())
    doc.update(window_length=CFG.window_length, hop=CFG.hop)
    manifest.write_text(json.dumps(doc))
    clean, noise = (read_wav(root / "data" / doc["items"][0][key]) for key in ("clean_path", "noise_path"))
    write_wav(root / "mixture.wav", TimeSignal(clean.samples + noise.samples[: len(clean)], CFG.sample_rate))
    for j, mags in enumerate(oracle_magnitudes([clean, TimeSignal(noise.samples[: len(clean)])], CFG), 1):
        write_spectrogram(root / f"s{j}.spgm", mags)
    (root / "garbage").write_bytes(b"RIFF\x00\x01{garbage")
    config = {"manifest": str(manifest), "output_dir": str(root / "bench"), "sigma_grid": [0, 1],
              "max_iterations": 1, "degradation_levels": [0.0], "jobs": 1}
    (root / "config.json").write_text(json.dumps(config))
    (root / "list.json").write_text("[]")
    return root


# Per subcommand and flag: the values to draw, valid ones first; "{x}" is the fixture file x.  None of
# them is valid and slow: --iters stays small, and --window 2**40 fails at once (numpy will not allocate it).
PATHS = ["{garbage}", "{missing}", "{data}", "{list.json}"]
NUMBERS = ["0", "1", "-1", "2.5", "1e308", "-1e308", "nan", "inf", "x", ""]
FLAGS = {
    "mix": {
        "--clean": ["{data}/validation/clean_00.wav", "{data}/validation/noise_00.wav", *PATHS],
        "--noise": ["{data}/validation/noise_00.wav", "{data}/validation/clean_00.wav", "{mixture.wav}", *PATHS],
        "--isnr": NUMBERS,
        "--seed": ["0", "-1", str(2**64), "x"],
        "--out": ["{out}", "{garbage}", "{garbage}/out"],
    },
    "separate": {
        "--mixture": ["{mixture.wav}", "{data}/validation/noise_00.wav", *PATHS],
        "--mags": [["{s1.spgm}", "{s2.spgm}"], ["{s1.spgm}"], ["{s1.spgm}"] * 3, ["{mixture.wav}"], ["{missing}"]],
        "--algo": [*sorted(_ALGOS), "nope"],
        "--sigma": ["1", *NUMBERS],
        "--iters": ["1", "0", "2", "-1", "x"],
        "--weights": [*WEIGHT_SCHEMES, "x"],
        "--window": ["64", "0", "-1", "3", "48", "65", str(2**40)],
        "--hop": ["16", "0", "-1", "8", "64"],
        "--out": ["{out}", "{garbage}"],
    },
    "evaluate": {
        "--ref": ["{data}/validation/clean_00.wav", "{mixture.wav}", *PATHS],
        "--est": ["{mixture.wav}", "{data}/validation/noise_00.wav", *PATHS],
    },
    "benchmark": {
        "--config": ["{config.json}", "{list.json}", "{garbage}", "{missing}", "{data}"],
        "--jobs": ["1", "0", "-1", "x"],
    },
}


def test_every_flag_is_fuzzed():
    commands = next(a for a in _build_parser()._actions if a.dest == "command").choices
    assert {name: {flag for a in sub._actions for flag in a.option_strings if flag not in ("-h", "--help")}
            for name, sub in commands.items()} == {name: set(flags) for name, flags in FLAGS.items()}


def _path(token: str, root: Path) -> str:
    """``token`` with each ``{x}`` replaced by root/x: a fixture file, or no file (``missing``, ``out``)."""
    return re.sub(r"\{(.+?)\}", lambda m: str(root / m[1]), token)


@st.composite
def argvs(draw):
    """A subcommand's valid argv with up to two flags mutated or left out, maybe a stray token added."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    values = {flag: choices[0] for flag, choices in FLAGS[command].items()}
    for flag in draw(st.sets(st.sampled_from(sorted(values)), max_size=2)):
        values[flag] = draw(st.sampled_from([*FLAGS[command][flag][1:], None]))
    argv = [draw(st.sampled_from([command] * 9 + ["bogus"]))]
    for flag, value in values.items():
        if value is not None:
            argv += [flag, *(value if isinstance(value, list) else [value])]
    return argv + draw(st.sampled_from([[]] * 7 + [["--bogus"], ["stray"], ["--iters"]]))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(argv=argvs())
def test_argv(files, argv):
    run_main([_path(token, files) for token in argv])


# JSON leaves: wrong types and extremes.  Where a key takes an extreme, it fails at once or runs small.
LEAF_VALUES = [None, True, False, 0, 1, -1, 3, 2**63, 0.5, 1e308, float("nan"), float("inf"),
               "", "x", "inf", "misi", "test", "uniform", "validation/clean_00.wav"]
LEAVES = st.sampled_from(LEAF_VALUES)
JSON_VALUES = st.recursive(LEAVES, lambda inner: st.lists(inner, max_size=3)
                           | st.dictionaries(st.sampled_from(["items", "x"]), inner, max_size=2), max_leaves=5)
REMOVED = object()
# Every key of the three tables gets each leaf, alone, in a list and twice in a list (a repeat), and is removed.
PROBES = [*LEAF_VALUES, *([v] for v in LEAF_VALUES), *([v, v] for v in LEAF_VALUES), REMOVED]
KEYS = [("config", key) for key in _CONFIG_VALUES] + [("manifest", key) for key in _MANIFEST_VALUES] + [
    ("item", key) for key in _ITEM_VALUES]


@pytest.fixture(scope="module")
def base_docs(files):
    """The valid config and manifest; ``run_benchmark`` writes the manifest next to the data's items."""
    config = json.loads((files / "config.json").read_text())
    return {**config, "manifest": "fuzz_manifest.json"}, json.loads((files / "data" / "manifest.json").read_text())


def run_benchmark(root: Path, config, manifest) -> int:
    (root / "data" / "fuzz_manifest.json").write_text(json.dumps(manifest))
    (root / "data" / "fuzz_config.json").write_text(json.dumps(config))
    return run_main(["benchmark", "--config", root / "data" / "fuzz_config.json"])


@pytest.mark.parametrize("part, key", KEYS)
def test_each_key_at_each_probe(files, base_docs, part, key):
    for probe in PROBES:
        config, manifest = copy.deepcopy(base_docs)
        doc = {"config": config, "manifest": manifest, "item": manifest["items"][0]}[part]
        if probe is REMOVED:
            doc.pop(key, None)
        else:
            doc[key] = probe
        try:
            run_benchmark(files, config, manifest)
        except Exception as exc:
            raise AssertionError(f"{part} {key!r}: {'removed' if probe is REMOVED else repr(probe)}") from exc


@st.composite
def mutated(draw, doc: dict, rules: dict) -> dict:
    """``doc`` with one or two keys, from ``rules`` or unknown, set to a drawn value or removed."""
    doc = dict(doc)
    for key in draw(st.lists(st.sampled_from([*rules, "bogus", "window"]), min_size=1, max_size=2)):
        if draw(st.booleans()) and key in doc:
            del doc[key]
        else:
            doc[key] = draw(JSON_VALUES | LEAVES.map(lambda v: [v, v]))
    return doc


@st.composite
def benchmark_inputs(draw, config: dict, manifest: dict):
    """The valid config and manifest with at most one part mutated: the config, the manifest's top level,
    one item (maybe replaced by any JSON value), the items repeated, or a whole document replaced."""
    config, items = {**config, "jobs": draw(st.sampled_from([None, 1]))}, list(manifest["items"])
    part = draw(st.sampled_from([None, "config", "manifest", "item"] * 2 + ["repeat", "config_doc", "manifest_doc"]))
    if part == "config":
        config = draw(mutated(config, _CONFIG_VALUES))
    if part == "config_doc":
        config = draw(JSON_VALUES)
    if part == "item":
        n = draw(st.sampled_from(range(len(items))))
        items[n] = draw(mutated(items[n], _ITEM_VALUES) | JSON_VALUES)
    if part == "repeat":
        items += items
    manifest = {**manifest, "items": items}
    if part == "manifest":
        manifest = draw(mutated(manifest, _MANIFEST_VALUES))
    if part == "manifest_doc":
        manifest = draw(JSON_VALUES)
    return config, manifest


@settings(max_examples=150, derandomize=True, deadline=None)
@given(data=st.data())
def test_config_and_manifest(files, base_docs, data):
    run_benchmark(files, *data.draw(benchmark_inputs(*base_docs)))


# Most damaged WAVs fail to read; these read, at each rate that TestWavFuzz draws.
READABLE_WAVS = st.builds(lambda rate, n: _wav(_fmt(3, 32, rate), np.arange(1, n + 1, dtype="<f4").tobytes()),
                          st.sampled_from([8000, *FMT_MUTATIONS["rate"]]), st.integers(0, 9))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(raw=mutated_wavs() | READABLE_WAVS)
def test_damaged_wavs(files, raw):
    wav, out = files / "fuzz.wav", files / "fuzz_out"
    wav.write_bytes(raw)
    mags = [files / "s1.spgm", files / "s2.spgm"]
    try:  # where the WAV reads, magnitudes of its shape, so that separate runs
        shape = (CFG.n_bins, CFG.num_frames(len(read_wav(wav))))
        mags = [files / "fuzz_s1.spgm", files / "fuzz_s2.spgm"]
        for path in mags:
            write_spectrogram(path, np.ones(shape))
    except ValueError:
        pass
    run_main(["mix", "--clean", wav, "--noise", wav, "--isnr", "0", "--out", out])
    run_main(["evaluate", "--ref", wav, "--est", wav])
    run_main(["separate", "--mixture", wav, "--mags", *mags, "--algo", "misi", "--iters", "1",
              "--window", CFG.window_length, "--hop", CFG.hop, "--out", out])


@settings(max_examples=100, derandomize=True, deadline=None)
@given(raw=mutated_spgms())
def test_damaged_magnitude_files(files, raw):
    (files / "fuzz.spgm").write_bytes(raw)
    run_main(["separate", "--mixture", files / "mixture.wav", "--mags", files / "fuzz.spgm", files / "s2.spgm",
              "--algo", "misi", "--iters", "1", "--window", CFG.window_length, "--hop", CFG.hop,
              "--out", files / "fuzz_out"])
