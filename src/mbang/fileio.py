"""File formats: datasets (CSV and raw binary), model specs, graphs.

CSV layout: one row per variable; the first field of each row is the 1-based
vertex label, the rest are the samples.  Floats are written with shortest
round-trip repr, so a write/read cycle is lossless and seeded runs are
byte-identical.

Binary layout: a 16-byte header (magic b"MBD1", uint32 p, uint64 n, all
little-endian) followed by the p*n float64 matrix, row-major little-endian.
"""

from __future__ import annotations

import hashlib
import json
import struct

import numpy as np

from .distributions import noise_from_json_dict, noise_to_json_dict
from .errors import SchemaError
from .graphs import MixedGraph, graph_from_json_dict, graph_to_json_dict, is_finite_real, vertex_label
from .sem import Dataset, HiddenSource, LsemSpec

MAGIC = b"MBD1"
_HEADER = struct.Struct("<4sIQ")

B_CONVENTION = "B[i][j] is the direct effect of vertex i on vertex j; X = (I - B^T)^{-1} eps"


def write_dataset_csv(data: Dataset, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for label, row in enumerate(data.values, start=1):
            fh.write(str(label))
            fh.write(",")
            fh.write(",".join(repr(float(x)) for x in row))
            fh.write("\n")


def read_dataset_csv(path) -> Dataset:
    labels = []
    rows = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                fields = line.split(",")
                try:
                    labels.append(int(fields[0]))
                    rows.append([float(x) for x in fields[1:]])
                except ValueError as exc:
                    raise SchemaError(f"{path}:{line_no}: {exc}") from exc
    except OSError as exc:
        raise SchemaError(f"cannot read dataset {path}: {exc}") from exc
    if not rows:
        raise SchemaError(f"{path}: dataset file is empty")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise SchemaError(f"{path}: rows have inconsistent sample counts")
    if sorted(labels) != list(range(1, len(rows) + 1)):
        raise SchemaError(
            f"{path}: row labels must be a permutation of 1..{len(rows)}, got {labels}"
        )
    order = np.argsort(labels)
    return Dataset(np.array(rows, dtype=float)[order])


def write_dataset_bin(data: Dataset, path):
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, data.p, data.n))
        fh.write(np.ascontiguousarray(data.values, dtype="<f8").tobytes())


def read_dataset_bin(path) -> Dataset:
    try:
        with open(path, "rb") as fh:
            header = fh.read(_HEADER.size)
            if len(header) != _HEADER.size:
                raise SchemaError(f"{path}: truncated header")
            magic, p, n = _HEADER.unpack(header)
            if magic != MAGIC:
                raise SchemaError(f"{path}: bad magic {magic!r}")
            payload = fh.read()
    except OSError as exc:
        raise SchemaError(f"cannot read dataset {path}: {exc}") from exc
    expected = p * n * 8
    if len(payload) != expected:
        raise SchemaError(f"{path}: expected {expected} payload bytes, got {len(payload)}")
    values = np.frombuffer(payload, dtype="<f8").reshape(p, n)
    return Dataset(values.astype(float))


def read_dataset(path) -> Dataset:
    """Dispatch on extension: .bin is raw binary, anything else is CSV."""
    if str(path).endswith(".bin"):
        return read_dataset_bin(path)
    return read_dataset_csv(path)


def spec_to_json_dict(spec: LsemSpec) -> dict:
    out = graph_to_json_dict(spec.graph)
    out["b_convention"] = B_CONVENTION
    out["B"] = [[float(x) for x in row] for row in spec.B]
    out["noise"] = [noise_to_json_dict(nz) for nz in spec.noise]
    out["hidden_sources"] = [
        {
            "members": sorted(src.members),
            "loadings": [float(x) for x in src.loadings],
            "noise": noise_to_json_dict(src.noise),
        }
        for src in spec.hidden
    ]
    return out


def spec_from_json_dict(obj) -> LsemSpec:
    if not isinstance(obj, dict):
        raise SchemaError("spec document must be a JSON object")
    graph = graph_from_json_dict(obj)
    try:
        if not all(is_finite_real(x) for row in obj["B"] for x in row):
            raise SchemaError("B entries must be finite real numbers")
        B = np.asarray(obj["B"], dtype=float)
        noise = tuple(noise_from_json_dict(nz) for nz in obj["noise"])
        hidden = tuple(
            HiddenSource(
                frozenset(vertex_label(v) for v in item["members"]),
                item["loadings"],
                noise_from_json_dict(item["noise"]),
            )
            for item in obj.get("hidden_sources", [])
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed spec document: {exc}") from exc
    hidden = tuple(
        sorted(hidden, key=lambda src: tuple(sorted(src.members)))
    )
    return LsemSpec(graph, B, noise, hidden)


def load_spec(path) -> LsemSpec:
    return spec_from_json_dict(load_json(path))


def save_spec(spec: LsemSpec, path):
    save_json(spec_to_json_dict(spec), path)


def load_graph(path) -> MixedGraph:
    return graph_from_json_dict(load_json(path))


def save_graph(g: MixedGraph, path):
    save_json(graph_to_json_dict(g), path)


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc


def save_json(obj, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def canonical_sha256(obj) -> str:
    """Hash of the canonical JSON rendering, for provenance echoes."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()
