"""Property tests: the readers raise only FormatError on mutated files,
and the CLI exits with 2 on the files they reject."""

import json

import numpy as np
import pytest

from hashnet.cli import main
from hashnet.errors import FormatError
from hashnet.formats import (
    load_model,
    read_codes,
    read_features,
    read_labels,
    save_model,
    write_codes,
    write_features,
    write_labels,
)
from hashnet.index import pack
from hashnet.network import Layer, NetworkParams

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings = hypothesis.given, hypothesis.settings


def small_model():
    rng = np.random.default_rng(2)
    return NetworkParams([
        Layer(rng.standard_normal((5, 3)), rng.standard_normal(5), "identity"),
        Layer(rng.standard_normal((2, 5)), rng.standard_normal(2), "scaled_sigmoid"),
    ])


# Deterministic: derandomized, no example database; conftest.py keeps
# hypothesis's cache out of the source tree.
FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=100)

FORMATS = {
    "features": (lambda p: write_features(p, [[0.5, -1.0, 2.0], [3.0, 0.0, -4.5]]),
                 read_features),
    "labels": (lambda p: write_labels(p, [0, 1, 1, 0]), read_labels),
    "codes": (lambda p: write_codes(p, pack(np.array([[1.0, -1.0, 1.0, -1.0]] * 10))),
              read_codes),
    "model": (lambda p: save_model(p, small_model(), {"seed": 1}), load_model),
}


def mutate(data, blob: bytes) -> bytes:
    kind = data.draw(st.sampled_from(["truncate", "extend", "overwrite"]))
    if kind == "truncate":
        return blob[: data.draw(st.integers(0, len(blob) - 1))]
    if kind == "extend":
        return blob + data.draw(st.binary(min_size=1, max_size=16))
    at = data.draw(st.integers(0, len(blob) - 1))
    chunk = data.draw(st.binary(min_size=1, max_size=8))
    return blob[:at] + chunk + blob[at + len(chunk) :]


def fuzz_file(tmp_path_factory, fmt, data):
    directory = tmp_path_factory.getbasetemp() / f"fuzz-{fmt}"
    directory.mkdir(exist_ok=True)
    path = directory / fmt
    FORMATS[fmt][0](path)
    path.write_bytes(mutate(data, path.read_bytes()))
    return path


def raises_format_error(read, path) -> bool:
    try:
        read(path)
    except FormatError:
        return True
    return False


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@FUZZ
@given(data=st.data())
def test_readers_raise_only_format_error_on_mutated_files(tmp_path_factory, fmt, data):
    raises_format_error(FORMATS[fmt][1], fuzz_file(tmp_path_factory, fmt, data))


TEXT = st.text("AB=+/ \x00", max_size=8)  # a small alphabet, base64's among it
EDGE_NUMBERS = [float("inf"), float("nan"), -1, 0, 1.5, 2**31, 2**62, 2**64, 1e300]
JSON_VALUES = st.one_of(
    st.sampled_from(EDGE_NUMBERS + ["delete"]),
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), TEXT),
    st.lists(st.integers(), max_size=3) | st.dictionaries(TEXT, st.integers(), max_size=2),
)
MODEL_FIELDS = [(None, key) for key in ("format", "version", "bits", "layers", "metadata")] + [
    (layer, key) for layer in (0, 1) for key in ("activation", "in_dim", "out_dim", "weights", "bias")
]


@pytest.mark.parametrize("layer, key", MODEL_FIELDS)
@settings(FUZZ, max_examples=30)
@given(value=JSON_VALUES)
def test_load_model_raises_only_format_error_on_altered_fields(tmp_path_factory, layer, key, value):
    path = tmp_path_factory.getbasetemp() / "altered-model.json"
    save_model(path, small_model(), {})
    doc = json.loads(path.read_text())
    target = doc if layer is None else doc["layers"][layer]
    if value == "delete":
        target.pop(key)
    else:
        target[key] = value
    path.write_text(json.dumps(doc))
    raises_format_error(load_model, path)


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@settings(FUZZ, max_examples=25)
@given(data=st.data())
def test_cli_exits_2_on_mutated_files(tmp_path_factory, fmt, data):
    directory = tmp_path_factory.getbasetemp() / "fuzz-cli"
    directory.mkdir(exist_ok=True)
    files = {}
    for name, (write, _) in FORMATS.items():
        files[name] = directory / name
        write(files[name])
    bad = fuzz_file(tmp_path_factory, fmt, data)
    files[fmt] = bad
    if not raises_format_error(FORMATS[fmt][1], bad):
        return
    if fmt in ("features", "model"):
        argv = ["encode", str(files["model"]), str(files["features"]), "-o", str(directory / "o")]
    else:
        argv = ["eval", str(files["codes"]), str(files["labels"]), str(files["codes"]),
                str(files["labels"])]
    assert main(argv) == 2
