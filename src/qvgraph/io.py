"""Data ingestion, preprocessing, persistence and network export."""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataFormatError, DomainError, ManifestError
from .families import FamilyKind, get_family
from .inference import (
    GammaS0Prior,
    MCMCConfig,
    NormalS0Prior,
    PosteriorSamples,
    PriorConfig,
)
from .model import Dataset, ModelParams, node_pairs

__all__ = [
    "RunConfig",
    "EdgeWeight",
    "NetworkExport",
    "load_dataset",
    "save_dataset",
    "preprocess_standardize_plus3",
    "preprocess_reciprocal",
    "export_network",
    "persist_samples",
    "load_samples",
    "samples_identical",
]

_FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# Dataset CSV ingestion
# ---------------------------------------------------------------------------

def _unreadable(path, exc: OSError) -> DataFormatError:
    return DataFormatError(f"{path}: cannot read the file ({exc.strerror or exc})")


def _parse_rows(path: Path):
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = [row for row in csv.reader(fh) if row and any(cell.strip() for cell in row)]
    except OSError as exc:
        raise _unreadable(path, exc) from None
    if not rows:
        raise DataFormatError(f"{path}: file contains no data rows")
    return rows


def _parse_numbers(path: Path, rows, first_row_number: int = 1) -> np.ndarray:
    """Parse CSV rows into a float matrix, naming the 1-based row/column of a bad cell."""
    width = len(rows[0])
    values = np.empty((len(rows), width), dtype=float)
    for i, row in enumerate(rows):
        row_number = i + first_row_number
        if len(row) != width:
            raise DataFormatError(
                f"{path}: row {row_number} has {len(row)} fields, expected {width}"
            )
        for j, cell in enumerate(row):
            try:
                values[i, j] = float(cell)
            except ValueError:
                raise DataFormatError(
                    f"{path}: could not parse {cell!r} (row {row_number}, column {j + 1})"
                ) from None
    return values


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def load_dataset(path, family) -> Dataset:
    """Read a CSV with one replicate per row, validating against the family.

    The first row is a header of node names when none of its cells is a
    number; a first row with any number in it is data.  Raises
    DataFormatError with the 1-based row/column of the first parse failure or
    of an empty or repeated node name, and SupportViolationError naming the
    first out-of-support cell.
    """
    path = Path(path)
    fam = get_family(family)
    rows = _parse_rows(path)

    header = None
    if not any(_is_number(cell) for cell in rows[0]):
        header = [cell.strip() for cell in rows[0]]
        for j, name in enumerate(header):
            if not name or name in header[:j]:
                problem = f"repeated node name {name!r}" if name else "empty node name"
                raise DataFormatError(f"{path}: {problem} in the header (column {j + 1})")
        rows = rows[1:]
        if not rows:
            raise DataFormatError(f"{path}: header present but no data rows")

    data = Dataset(y=_parse_numbers(path, rows, 2 if header else 1), node_names=header or [])
    data.validate_support(fam)
    return data


def save_dataset(data: Dataset, path) -> None:
    """Write a dataset back to CSV (header row plus full-precision values)."""
    path = Path(path)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(data.node_names)
        for row in data.y:
            writer.writerow([f"{v:.17g}" for v in row])


# ---------------------------------------------------------------------------
# Preprocessing
# ---------------------------------------------------------------------------

def preprocess_standardize_plus3(data: Dataset) -> Dataset:
    """Center and scale each column to unit sample sd, then shift by +3.

    A linear transformation, so pairwise correlations are unchanged; the
    shift keeps the values away from zero for positive-support families.
    """
    if data.n < 2:
        raise DomainError("standardization needs at least two replicates per column")
    sd = data.y.std(axis=0, ddof=1)
    if np.any(sd == 0.0):
        col = int(np.flatnonzero(sd == 0.0)[0]) + 1
        raise DomainError(f"column {col} has zero variance and cannot be standardized")
    y = (data.y - data.y.mean(axis=0)) / sd + 3.0
    return Dataset(y=y, node_names=list(data.node_names))


def preprocess_reciprocal(data: Dataset) -> Dataset:
    """Replace every value by its reciprocal (positive data only)."""
    if np.any(data.y <= 0.0):
        raise DomainError("reciprocal transform requires strictly positive data")
    return Dataset(y=1.0 / data.y, node_names=list(data.node_names))


# ---------------------------------------------------------------------------
# Network export
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EdgeWeight:
    source: str
    target: str
    raw: float
    normalized: float


@dataclass(frozen=True)
class NetworkExport:
    nodes: list[str]
    edges: list[EdgeWeight]
    threshold: float


def _intensity_matrix(source) -> tuple[np.ndarray, list[str]]:
    if isinstance(source, PosteriorSamples):
        return source.edge_matrix_mean(), list(source.node_names)
    if isinstance(source, ModelParams):
        labels = [f"y{j + 1}" for j in range(source.p)]
        return np.asarray(source.edge_intensity, dtype=float), labels
    matrix = np.asarray(source, dtype=float)
    labels = [f"y{j + 1}" for j in range(matrix.shape[0])]
    return matrix, labels


def export_network(source, labels=None, threshold: float = 5.0,
                   out_dir=None, basename: str = "network") -> NetworkExport:
    """Build the normalized edge-weight export, optionally writing files.

    Weights are 100 * intensity / max intensity, rounded to two decimals, so
    the strongest edge is exactly 100.  When ``out_dir`` is given, a DOT
    graph (edges at or above ``threshold`` only, gray level encoding weight)
    and a JSON edge list with raw and normalized weights are written.
    """
    matrix, default_labels = _intensity_matrix(source)
    labels = list(labels) if labels is not None else default_labels
    p = matrix.shape[0]
    if len(labels) != p:
        raise DomainError("label count does not match the intensity matrix")
    top = float(matrix.max())
    if top <= 0.0:
        raise DomainError("network export requires at least one positive intensity")

    pairs = sorted(node_pairs(p), key=lambda jk: (labels[jk[0]], labels[jk[1]]))
    edges = [
        EdgeWeight(
            source=labels[j],
            target=labels[k],
            raw=float(matrix[j, k]),
            normalized=round(100.0 * matrix[j, k] / top, 2),
        )
        for j, k in pairs
    ]
    export = NetworkExport(nodes=list(labels), edges=edges, threshold=float(threshold))

    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_dot(export, out_dir / f"{basename}.dot")
        _write_edge_json(export, out_dir / f"{basename}.json")
    return export


def _dot_id(name: str) -> str:
    """``name`` as a quoted DOT identifier, its backslashes and quotes escaped."""
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _write_dot(export: NetworkExport, path: Path) -> None:
    lines = ["graph network {", "  node [shape=circle];"]
    for name in export.nodes:
        lines.append(f"  {_dot_id(name)};")
    for e in export.edges:
        if e.normalized < export.threshold:
            continue
        level = int(round(100.0 - e.normalized))
        level = min(max(level, 0), 100)
        lines.append(f"  {_dot_id(e.source)} -- {_dot_id(e.target)} "
                     f"[weight={e.normalized:.2f}, color=gray{level}];")
    lines.append("}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_edge_json(export: NetworkExport, path: Path) -> None:
    payload = {
        "nodes": export.nodes,
        "threshold": export.threshold,
        "edges": [
            {"from": e.source, "to": e.target, "raw": e.raw, "normalized": e.normalized}
            for e in export.edges
        ],
    }
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Posterior sample persistence
# ---------------------------------------------------------------------------

def persist_samples(samples: PosteriorSamples, directory) -> None:
    """Write one CSV per parameter plus a JSON manifest (and latents, if any).

    Values are written with 17 significant digits so that reloading
    reproduces the arrays bit-exactly.  ``latents.npz`` is stored
    uncompressed: random floats barely compress, and compressing them costs
    far more time than the file saves.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    names = samples.parameter_names()
    for name in names:
        arr = samples.parameter_array(name)
        header = ",".join(f"chain_{m}" for m in range(samples.chains))
        np.savetxt(directory / f"{name}.csv", arr.T, delimiter=",",
                   fmt="%.17g", header=header, comments="")
    if samples.links is not None:
        np.savez(directory / "latents.npz", w=samples.w, links=samples.links)
    manifest = {
        "format_version": _FORMAT_VERSION,
        "family": samples.family.value,
        "node_names": samples.node_names,
        "pairs": [list(p) for p in samples.pairs],
        "chains": samples.chains,
        "retained": samples.retained,
        "parameters": names,
        "has_latents": samples.links is not None,
        "meta": samples.meta,
    }
    (directory / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _sample_file(directory: Path, name: str) -> Path:
    path = directory / name
    if not path.is_file():
        raise ManifestError(f"{directory}: missing {name}")
    return path


def _check_shape(directory: Path, name: str, arr: np.ndarray, expected: tuple) -> None:
    if arr.shape != expected:
        raise ManifestError(f"{directory}: {name} has shape {arr.shape}, the manifest "
                            f"gives {expected}")


def load_samples(directory) -> PosteriorSamples:
    """Reload a persisted samples directory; raises ManifestError naming a
    file that is missing, unreadable or not of the manifest's (chains,
    retained) draws, on a format version mismatch, or when the manifest's
    pairs are not the node pairs of its node names."""
    directory = Path(directory)
    manifest = json.loads(_sample_file(directory, "manifest.json").read_text(encoding="utf-8"))
    version = manifest.get("format_version")
    if version != _FORMAT_VERSION:
        raise ManifestError(
            f"{directory}: manifest format version {version!r} is not supported "
            f"(expected {_FORMAT_VERSION})"
        )

    draws = (manifest["chains"], manifest["retained"])

    def read_param(name):
        path = _sample_file(directory, f"{name}.csv")
        try:
            arr = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2).T
        except ValueError as exc:
            raise ManifestError(f"{directory}: cannot parse {path.name} ({exc})") from None
        _check_shape(directory, path.name, arr, draws)
        return np.ascontiguousarray(arr)

    pairs = [tuple(p) for p in manifest["pairs"]]
    node_names = list(manifest["node_names"])
    if pairs != node_pairs(len(node_names)):
        raise ManifestError(f"{directory}: manifest.json lists pairs {pairs}, which are not "
                            f"the node pairs of its {len(node_names)} node_names")
    s0 = read_param("s0")
    c0 = read_param("c0")
    edge_arrays = [read_param(f"c_{j + 1}_{k + 1}") for j, k in pairs]
    edges = np.stack(edge_arrays, axis=-1)
    w = links = None
    if manifest.get("has_latents"):
        with np.load(_sample_file(directory, "latents.npz")) as payload:
            w = payload["w"]
            links = payload["links"]
        n = w.shape[-1] if w.ndim == 3 else "n"
        _check_shape(directory, "latents.npz w", w, (*draws, n))
        _check_shape(directory, "latents.npz links", links, (*draws, n, len(pairs)))
    return PosteriorSamples(
        family=FamilyKind(manifest["family"]),
        node_names=node_names,
        pairs=pairs,
        s0=s0,
        c0=c0,
        edges=edges,
        w=w,
        links=links,
        meta=manifest.get("meta", {}),
    )


def samples_identical(a: PosteriorSamples, b: PosteriorSamples) -> bool:
    """Bit-exact equality of two posterior sample sets."""
    if (a.family, a.node_names, a.pairs) != (b.family, b.node_names, b.pairs):
        return False
    for name in ("s0", "c0", "edges"):
        if not np.array_equal(getattr(a, name), getattr(b, name)):
            return False
    for name in ("w", "links"):
        x, y = getattr(a, name), getattr(b, name)
        if (x is None) != (y is None):
            return False
        if x is not None and not np.array_equal(x, y):
            return False
    return True


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------

_BOOL_VALUES = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


@dataclass
class RunConfig:
    """Flat run configuration: family, priors, chain controls, IO paths.

    Mirrors a ``key = value`` text file; every field name is a valid key and
    command-line overrides use the same names.
    """

    family: str = "normal"
    input: str | None = None
    output_dir: str | None = None
    # prior constants, defaulting to the library's
    a0: float = PriorConfig.a0
    b0: float = PriorConfig.b0
    d0: float = PriorConfig.d0
    ac: float = PriorConfig.ac
    bc: float = PriorConfig.bc
    mu_s: float = NormalS0Prior.mu
    tau_s: float = NormalS0Prior.tau
    a_s: float = GammaS0Prior.a
    b_s: float = GammaS0Prior.b
    # chain controls, defaulting to the library's
    iterations: int = MCMCConfig.iterations
    burn_in: int = MCMCConfig.burn_in
    thinning: int = MCMCConfig.thinning
    chains: int = MCMCConfig.chains
    seed: int = MCMCConfig.seed
    adapt_window: int = MCMCConfig.adapt_window
    keep_latents: bool = MCMCConfig.keep_latents
    # preprocessing
    standardize_plus3: bool = False
    reciprocal_transform: bool = False

    @classmethod
    def field_names(cls):
        return [f.name for f in dataclasses.fields(cls)]

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        path = Path(path)
        config = cls()
        try:
            text = path.read_text(encoding="utf-8-sig")
        except OSError as exc:
            raise _unreadable(path, exc) from None
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                config.set_item(line, f"{path}:{lineno}")
        return config

    def set_item(self, item: str, source: str) -> None:
        """Apply one ``key = value`` item; ``source`` names it in an error."""
        if "=" not in item:
            raise DataFormatError(f"{source}: expected 'key = value', got {item!r}")
        key, value = (part.strip() for part in item.split("=", 1))
        try:
            self.set_option(key, value)
        except DataFormatError as exc:
            raise DataFormatError(f"{source}: {exc}") from None

    def set_option(self, key: str, value: str) -> None:
        if key not in self.field_names():
            raise DataFormatError(f"unknown configuration key {key!r}")
        current = getattr(self, key)
        if isinstance(current, bool):
            parsed = _BOOL_VALUES.get(str(value).strip().lower())
            if parsed is None:
                raise DataFormatError(f"{key}: expected a boolean, got {value!r}")
        elif isinstance(current, int):
            try:
                parsed = int(value)
            except ValueError:
                raise DataFormatError(f"{key}: expected an integer, got {value!r}") from None
        elif isinstance(current, float):
            try:
                parsed = float(value)
            except ValueError:
                raise DataFormatError(f"{key}: expected a number, got {value!r}") from None
        else:
            parsed = None if value in ("", "none") else str(value)
        setattr(self, key, parsed)

    def prior_config(self) -> PriorConfig:
        # The family's s0 prior form; each of its constants is the field
        # named after it with an "_s" suffix (mu_s, tau_s, a_s, b_s).
        form = type(PriorConfig.default_for(self.family).s0_prior)
        s0_prior = form(**{f.name: getattr(self, f"{f.name}_s") for f in dataclasses.fields(form)})
        return PriorConfig(a0=self.a0, b0=self.b0, d0=self.d0, ac=self.ac, bc=self.bc,
                           s0_prior=s0_prior)

    def mcmc_config(self) -> MCMCConfig:
        return MCMCConfig(
            iterations=self.iterations,
            burn_in=self.burn_in,
            thinning=self.thinning,
            chains=self.chains,
            seed=self.seed,
            adapt_window=self.adapt_window,
            keep_latents=self.keep_latents,
        )

    def config_hash(self) -> str:
        payload = json.dumps(dataclasses.asdict(self), sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()
