"""Bit-exact file formats.

Three binary containers, all little-endian with a 4-byte ASCII magic:

  HSF1  features   magic, n: u32, d: u32, then n*d IEEE-754 f32, sample-major
  HSL1  labels     magic, n: u32, then n u32 class ids
  HSB1  codes      magic, n: u32, bits: u32, then the packed code payload

plus a JSON model document holding layer dimensions, activation tags, and
base64 little-endian f64 weight/bias payloads.  Readers reject wrong magic,
truncation, trailing bytes, and non-finite floats with a message naming the
file and byte offset, and check a declared length against the file size
before reading it.  Features stay float32 from the file on: read_features
reads the payload into an array from numpy's allocator, with no zero-filled
staging buffer, checks each slice of it for finite values as it arrives,
and returns the stored values in that array, with no widened copy.  Writers are deterministic: the same inputs produce identical bytes,
and a file is replaced whole or not at all.
"""

import base64
import contextlib
import io
import json
import math
import os
import stat
import struct

import numpy as np

from .errors import FormatError, InvalidInput
from .index import PackedCodes
from .network import Layer, NetworkParams
from .numerics import as_float, check_int

FEATURES_MAGIC = b"HSF1"
LABELS_MAGIC = b"HSL1"
CODES_MAGIC = b"HSB1"
MODEL_FORMAT = "hashnet-model"
MODEL_VERSION = 1

_U32_MAX = 2**32 - 1
# Payload bytes read_features reads and checks at a time: a multiple of 4,
# so no float straddles two slices, and small enough to stay in cache.
_SLICE_BYTES = 2**18


def _read(path, magic: bytes, fields: tuple, payload_size, check=None):
    """Read a container: `magic`, one u32 per name in `fields`, then a
    payload of payload_size(*header) bytes.  The declared size is checked
    against the file size before the payload is read, so a forged header
    cannot cause a large allocation.  Returns the header and the payload:
    bytes, or with `check` a writable uint8 array from numpy's allocator
    (not zero-filled first) that the payload is read straight into, in
    slices of _SLICE_BYTES; check(slice, file offset) sees each slice as it
    arrives, while it is still in cache."""
    try:
        with open(path, "rb") as f:
            st = os.fstat(f.fileno())
            size = st.st_size
            if not stat.S_ISREG(st.st_mode):  # a pipe has no size to check: take it whole
                data = f.read()
                f, size = io.BytesIO(data), len(data)
            head = f.read(4 + 4 * len(fields))
            if head[:4] != magic:
                raise FormatError(
                    f"{path}: bad magic at offset 0: expected {magic!r}, got {head[:4]!r}"
                )
            if len(head) < 4 + 4 * len(fields):
                raise FormatError(f"{path}: truncated header at offset {len(head)}: {fields}")
            header = struct.unpack(f"<{len(fields)}I", head[4:])
            count = payload_size(*header)
            payload = b""
            if size - len(head) == count and check is None:
                payload = f.read(count)
            elif size - len(head) == count:
                payload = np.empty(count, np.uint8)
                for start in range(0, count, _SLICE_BYTES):
                    part = payload[start : start + _SLICE_BYTES]
                    if f.readinto(part) != len(part):
                        payload = b""
                        break
                    check(part, len(head) + start)
    except OSError as exc:
        raise FormatError(f"{path}: cannot read file: {exc}") from None
    if len(payload) != count or size - len(head) != count:
        raise FormatError(
            f"{path}: the header declares {count} payload bytes at offset "
            f"{len(head)}, the file holds {size - len(head)}"
        )
    return header, payload


@contextlib.contextmanager
def atomic_write(path, mode: str, **kwargs):
    """Open `path` for writing through a temp file beside its target
    (symlinks followed) that replaces the target when the block completes
    and is removed on any exception, KeyboardInterrupt included.  A target
    that exists and is not a regular file (a FIFO, /dev/null) is written in
    place."""
    target = os.path.realpath(path)
    old = os.stat(target) if os.path.exists(target) else None
    in_place = old is not None and not stat.S_ISREG(old.st_mode)
    tmp = target if in_place else f"{target}.{os.urandom(6).hex()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as f:
            if old is not None and not in_place:  # keep the mode, as truncating would
                os.chmod(f.fileno(), stat.S_IMODE(old.st_mode))
            yield f
        if not in_place:
            os.replace(tmp, target)
    except OSError as exc:
        if exc.filename != tmp:
            raise
        raise OSError(exc.errno, exc.strerror, path) from None  # name the target, not the temp file
    finally:  # the temp file is still there only if the write failed
        if not in_place and os.path.lexists(tmp):
            os.unlink(tmp)


def write_features(path, features):
    """Write an (n x d) matrix as an HSF1 file (32-bit floats on disk)."""
    x = as_float(features)
    if x.ndim != 2:
        raise InvalidInput(f"features must be 2-d, got shape {x.shape}")
    if x.shape[0] > _U32_MAX or x.shape[1] > _U32_MAX:
        raise InvalidInput("feature matrix too large for the file header")
    as_f32 = np.ascontiguousarray(x, dtype="<f4")
    if x.size and not np.all(np.isfinite(as_f32)):
        raise InvalidInput("features must be finite (and within float32 range)")
    with atomic_write(path, "wb") as f:
        f.write(FEATURES_MAGIC + struct.pack("<2I", *x.shape))
        f.write(as_f32)


def read_features(path) -> np.ndarray:
    """Read an HSF1 file into a writable (n x d) float32 matrix: the stored
    values as they are, in the one buffer the payload is read into."""

    def check_finite(part, offset):
        finite = np.isfinite(part.view("<f4"))
        if not np.all(finite):
            bad = int(np.argmin(finite))
            raise FormatError(f"{path}: non-finite float at offset {offset + 4 * bad}")

    (n, d), raw = _read(path, FEATURES_MAGIC, ("sample count", "feature dim"),
                        lambda n, d: 4 * n * d, check_finite)
    # native float32: no copy, except on a big-endian machine
    return raw.view("<f4").astype(np.float32, copy=False).reshape(n, d)


def write_labels(path, labels):
    """Write class ids as an HSL1 file."""
    y = np.asarray(labels)
    if y.ndim != 1:
        raise InvalidInput(f"labels must be 1-d, got shape {y.shape}")
    if not np.issubdtype(y.dtype, np.integer):
        raise InvalidInput("labels must be integers")
    if y.size and (y.min() < 0 or y.max() > _U32_MAX):
        raise InvalidInput("labels must fit an unsigned 32-bit integer")
    with atomic_write(path, "wb") as f:
        f.write(LABELS_MAGIC + struct.pack("<I", y.size))
        f.write(y.astype("<u4"))


def read_labels(path) -> np.ndarray:
    """Read an HSL1 file into an int64 vector."""
    _, raw = _read(path, LABELS_MAGIC, ("label count",), lambda n: 4 * n)
    return np.frombuffer(raw, dtype="<u4").astype(np.int64)


def write_codes(path, packed: PackedCodes):
    """Write packed binary codes as an HSB1 file."""
    if packed.n > _U32_MAX or packed.bits > _U32_MAX:
        raise InvalidInput("code set too large for the file header")
    with atomic_write(path, "wb") as f:
        f.write(CODES_MAGIC + struct.pack("<2I", packed.n, packed.bits))
        f.write(packed.payload)


def read_codes(path) -> PackedCodes:
    """Read an HSB1 file; validates payload length and zero padding bits."""
    (n, bits), payload = _read(path, CODES_MAGIC, ("code count", "code length"),
                               lambda n, bits: n * ((bits + 7) // 8))
    try:
        return PackedCodes(n=n, bits=bits, payload=payload)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None


def _encode_array(a: np.ndarray) -> str:
    return base64.b64encode(np.ascontiguousarray(a, dtype="<f8").tobytes()).decode("ascii")


def _decode_array(text: str, shape: tuple, path, what: str) -> np.ndarray:
    try:
        raw = base64.b64decode(text, validate=True)
    except (ValueError, TypeError) as exc:
        raise FormatError(f"{path}: cannot decode {what}: {exc}") from None
    expect = 8 * math.prod(shape)
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
    with atomic_write(path, "w", encoding="ascii") as f:
        json.dump(doc, f, sort_keys=True, separators=(",", ":"))
        f.write("\n")


def load_model(path) -> tuple[NetworkParams, dict]:
    """Read a model document back into NetworkParams plus its metadata;
    `bits` and the layer dims must be JSON integers, not bools, of >= 1."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as exc:
        raise FormatError(f"{path}: cannot read file: {exc}") from None
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
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
            in_dim, out_dim = entry["in_dim"], entry["out_dim"]
            w_text, b_text = entry["weights"], entry["bias"]
            check_int(in_dim, "in_dim", 1)
            check_int(out_dim, "out_dim", 1)
        except (KeyError, TypeError, InvalidInput) as exc:
            raise FormatError(f"{path}: malformed layer {i}: {exc}") from None
        weights = _decode_array(w_text, (out_dim, in_dim), path, f"layer {i} weights")
        bias = _decode_array(b_text, (out_dim,), path, f"layer {i} bias")
        layers.append((weights, bias, activation))
    try:
        check_int(doc.get("bits"), "declared bits", 1)
        params = NetworkParams([Layer(*layer) for layer in layers])
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
