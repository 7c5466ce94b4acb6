"""Bit-exact file formats.

Three binary containers, all little-endian with a 4-byte ASCII magic:

  HSF1  features   magic, n: u32, d: u32, then n*d IEEE-754 f32, sample-major
  HSL1  labels     magic, n: u32, then n u32 class ids
  HSB1  codes      magic, n: u32, bits: u32, then the packed code payload

plus a JSON model document holding layer dimensions, activation tags, and
base64 little-endian f64 weight/bias payloads.  Readers reject wrong magic,
truncation, trailing bytes, and non-finite floats with a message naming the
file and byte offset.  Writers are deterministic: the same inputs produce
identical bytes.
"""

import base64
import json
import struct

import numpy as np

from .errors import FormatError, InvalidInput
from .index import PackedCodes
from .network import ACTIVATIONS, Layer, NetworkParams

FEATURES_MAGIC = b"HSF1"
LABELS_MAGIC = b"HSL1"
CODES_MAGIC = b"HSB1"
MODEL_FORMAT = "hashnet-model"
MODEL_VERSION = 1

_U32_MAX = 2**32 - 1


class _Reader:
    """Byte reader tracking the current offset for diagnostics."""

    def __init__(self, path):
        self.path = str(path)
        try:
            with open(path, "rb") as f:
                self.data = f.read()
        except OSError as exc:
            raise FormatError(f"{path}: cannot read file: {exc}") from None
        self.offset = 0

    def take(self, count: int, what: str) -> bytes:
        chunk = self.data[self.offset : self.offset + count]
        if len(chunk) != count:
            raise FormatError(
                f"{self.path}: truncated file at offset {self.offset}: "
                f"expected {count} bytes for {what}, got {len(chunk)}"
            )
        self.offset += count
        return chunk

    def magic(self, expected: bytes):
        got = self.take(4, "magic")
        if got != expected:
            raise FormatError(
                f"{self.path}: bad magic at offset 0: expected {expected!r}, got {got!r}"
            )

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def finish(self):
        if self.offset != len(self.data):
            raise FormatError(
                f"{self.path}: {len(self.data) - self.offset} unexpected trailing "
                f"bytes at offset {self.offset}"
            )


def _u32_bytes(value: int) -> bytes:
    return struct.pack("<I", value)


def write_features(path, features):
    """Write an (n x d) matrix as an HSF1 file (32-bit floats on disk)."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise InvalidInput(f"features must be 2-d, got shape {x.shape}")
    if x.shape[0] > _U32_MAX or x.shape[1] > _U32_MAX:
        raise InvalidInput("feature matrix too large for the file header")
    as_f32 = x.astype("<f4")
    if x.size and not np.all(np.isfinite(as_f32)):
        raise InvalidInput("features must be finite (and within float32 range)")
    with open(path, "wb") as f:
        f.write(FEATURES_MAGIC)
        f.write(_u32_bytes(x.shape[0]))
        f.write(_u32_bytes(x.shape[1]))
        f.write(as_f32.tobytes())


def read_features(path) -> np.ndarray:
    """Read an HSF1 file into an (n x d) float64 matrix."""
    r = _Reader(path)
    r.magic(FEATURES_MAGIC)
    n = r.u32("sample count")
    d = r.u32("feature dim")
    payload_at = r.offset
    raw = r.take(4 * n * d, "feature payload")
    r.finish()
    values = np.frombuffer(raw, dtype="<f4")
    finite = np.isfinite(values)
    if not np.all(finite):
        bad = int(np.argmin(finite))
        raise FormatError(
            f"{r.path}: non-finite float at offset {payload_at + 4 * bad}"
        )
    return values.astype(np.float64).reshape(n, d)


def write_labels(path, labels):
    """Write class ids as an HSL1 file."""
    y = np.asarray(labels)
    if y.ndim != 1:
        raise InvalidInput(f"labels must be 1-d, got shape {y.shape}")
    if not np.issubdtype(y.dtype, np.integer):
        raise InvalidInput("labels must be integers")
    if y.size and (y.min() < 0 or y.max() > _U32_MAX):
        raise InvalidInput("labels must fit an unsigned 32-bit integer")
    with open(path, "wb") as f:
        f.write(LABELS_MAGIC)
        f.write(_u32_bytes(y.size))
        f.write(y.astype("<u4").tobytes())


def read_labels(path) -> np.ndarray:
    """Read an HSL1 file into an int64 vector."""
    r = _Reader(path)
    r.magic(LABELS_MAGIC)
    n = r.u32("label count")
    raw = r.take(4 * n, "label payload")
    r.finish()
    return np.frombuffer(raw, dtype="<u4").astype(np.int64)


def write_codes(path, packed: PackedCodes):
    """Write packed binary codes as an HSB1 file."""
    if packed.n > _U32_MAX or packed.bits > _U32_MAX:
        raise InvalidInput("code set too large for the file header")
    with open(path, "wb") as f:
        f.write(CODES_MAGIC)
        f.write(_u32_bytes(packed.n))
        f.write(_u32_bytes(packed.bits))
        f.write(packed.payload)


def read_codes(path) -> PackedCodes:
    """Read an HSB1 file; validates payload length and zero padding bits."""
    r = _Reader(path)
    r.magic(CODES_MAGIC)
    n = r.u32("code count")
    bits = r.u32("code length")
    if bits < 1:
        raise FormatError(f"{r.path}: code length must be >= 1, got {bits}")
    payload = r.take(n * ((bits + 7) // 8), "code payload")
    r.finish()
    try:
        return PackedCodes(n=n, bits=bits, payload=payload)
    except FormatError as exc:
        raise FormatError(f"{r.path}: {exc}") from None


def _encode_array(a: np.ndarray) -> str:
    return base64.b64encode(np.ascontiguousarray(a, dtype="<f8").tobytes()).decode("ascii")


def _decode_array(text: str, shape: tuple, path, what: str) -> np.ndarray:
    try:
        raw = base64.b64decode(text, validate=True)
    except (ValueError, TypeError) as exc:
        raise FormatError(f"{path}: cannot decode {what}: {exc}") from None
    expect = int(np.prod(shape)) * 8
    if len(raw) != expect:
        raise FormatError(
            f"{path}: {what} holds {len(raw)} bytes, expected {expect} for shape {shape}"
        )
    values = np.frombuffer(raw, dtype="<f8").reshape(shape)
    if values.size and not np.all(np.isfinite(values)):
        raise FormatError(f"{path}: {what} contains non-finite values")
    return values.copy()


def save_model(path, params: NetworkParams, metadata: dict):
    """Write the network as a versioned JSON document.

    Weights and biases are stored as base64 little-endian float64, so a
    round trip reproduces forward passes bitwise.
    """
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "bits": params.out_dim,
        "layers": [
            {
                "activation": layer.activation,
                "in_dim": layer.in_dim,
                "out_dim": layer.out_dim,
                "weights": _encode_array(layer.weights),
                "bias": _encode_array(layer.bias),
            }
            for layer in params.layers
        ],
        "metadata": metadata,
    }
    with open(path, "w", encoding="ascii") as f:
        json.dump(doc, f, sort_keys=True, separators=(",", ":"))
        f.write("\n")


def load_model(path) -> tuple[NetworkParams, dict]:
    """Read a model document back into NetworkParams plus its metadata."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as exc:
        raise FormatError(f"{path}: cannot read file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise FormatError(f"{path}: not a {MODEL_FORMAT} document")
    if doc.get("version") != MODEL_VERSION:
        raise FormatError(f"{path}: unsupported model version {doc.get('version')!r}")
    raw_layers = doc.get("layers")
    if not isinstance(raw_layers, list) or not raw_layers:
        raise FormatError(f"{path}: model document has no layers")
    layers = []
    for i, entry in enumerate(raw_layers):
        try:
            activation = entry["activation"]
            in_dim, out_dim = int(entry["in_dim"]), int(entry["out_dim"])
            w_text, b_text = entry["weights"], entry["bias"]
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"{path}: malformed layer {i}: {exc}") from None
        if activation not in ACTIVATIONS:
            raise FormatError(f"{path}: layer {i} has unknown activation {activation!r}")
        if in_dim < 1 or out_dim < 1:
            raise FormatError(f"{path}: layer {i} has non-positive dimensions")
        weights = _decode_array(w_text, (out_dim, in_dim), path, f"layer {i} weights")
        bias = _decode_array(b_text, (out_dim,), path, f"layer {i} bias")
        layers.append(Layer(weights, bias, activation))
    try:
        params = NetworkParams(layers)
    except InvalidInput as exc:
        raise FormatError(f"{path}: {exc}") from None
    if params.out_dim != doc.get("bits"):
        raise FormatError(
            f"{path}: declared bits {doc.get('bits')!r} do not match the last layer "
            f"({params.out_dim})"
        )
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise FormatError(f"{path}: metadata must be an object")
    return params, metadata
