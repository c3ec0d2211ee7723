"""Mixed lattice-path configurations on the strict half-grid.

Vertices are pairs ``(x, level)`` with ``0 <= x < level <= n``.  A mixed
path has a Left part of E (east) and S (south) steps followed by a Right
part of F (east) and N (north-east) steps; the vertex shared by the two
parts is the path's *junction*.  Step displacements:

    E: (x, l) -> (x+1, l)      S: (x, l) -> (x, l-1)
    F: (x, l) -> (x+1, l)      N: (x, l) -> (x+1, l+1)

A configuration is one path per start vertex (0, 1)..(0, n), ending on
the diagonal in some order, whose Left sub-configuration and Right
sub-configuration are each vertex-disjoint.  A neutral pair with table
``(k; a; b, beta)`` is encoded as the configuration whose paths are
``E^{a_i} F^{i-1-a_i}`` except for the consecutive special pair

    path k-1:  E^{a_{k-1}} F^{beta} N F^{k-2-a_{k-1}-beta}
    path k:    E^{a_k} S E^{b} F^{k-2-a_k-b}

Duality maps junctions, S-step starts and N-step ends through
``(x, l) -> (l-1-x, l)`` (the mirror of each level's vertex row) and
corresponds to vertical reflection of the underlying matrix.

A configuration built from a table (:func:`config_from_table`, and so
:func:`config_from_pair` and :func:`dual_config`) is valid exactly when
the table is, so it is checked on its table (the O(n)
:func:`table_valid`) instead of its paths, and a valid one keeps the
table: :func:`validate_config` returns it at once, and
:func:`table_from_config`, :func:`pair_from_config`,
:func:`config_params` and :func:`dual_config` read the table in O(n),
the last through :func:`inv_table.dual_table`.  Its O(n^2) step strings
are written by one path writer, :func:`_paths`, when they are first read:
``paths`` is a :func:`functools.cached_property` under the field's own
name, which stores them as the field.  Equality, hashing and repr read
them, so a built configuration equals its twin built on its paths.

A configuration given on its paths (:func:`config_from_json`, the CLI)
is walked once by the path check, :func:`_check_paths`, and marked
valid; its table is read off its step strings.  A Left part visits each
level it meets along one run of E-steps, and a Right part along one run
of F-steps, so a path is read by its runs per level and by step counts
(:meth:`MixedPath.vertex_at`), never vertex by vertex: the check does
O(n) Python work on the O(n) runs of a configuration, beyond string
operations on its step strings.  Only the renderers and the naming of a
problem that the check has already found walk the vertices.  The special
pair is located in one place, :func:`_special_k`, which also checks that
a configuration is valid and of the one-N shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain
from typing import Iterator

from .errors import (
    InvalidTable,
    MalformedConfiguration,
    NotOneNStep,
    ParseError,
)
from .inv_table import (
    GenInvTable,
    ParamVector,
    dual_table,
    gen_table,
    pair_from_table,
    table_params,
    table_valid,
)
from .matrix import json_int, json_object
from .neutral import NeutralPair

STEP_DELTAS = {"E": (1, 0), "S": (0, -1), "F": (1, 0), "N": (1, 1)}
_DX = {s: d[0] for s, d in STEP_DELTAS.items()}
_DL = {s: d[1] for s, d in STEP_DELTAS.items()}
RIGHT_STEPS = "FN"

Vertex = tuple[int, int]
Run = tuple[int, int, int]  # (level, first x, last x)


@dataclass(frozen=True)
class MixedPath:
    """A path as its start vertex plus a step string like ``"EESFF"``; a
    list start is frozen as a tuple."""

    start: Vertex
    steps: str

    def __post_init__(self):
        if isinstance(self.start, list):  # frozen as a tuple
            object.__setattr__(self, "start", tuple(self.start))

    def vertices(self) -> tuple[Vertex, ...]:
        # Through a list, so the tuple is allocated at its final length: a
        # tuple built straight from zip is grown by resizing, and once freed
        # it joins CPython's free list for its length (up to 2,000 per
        # length), which only a full garbage collection empties.
        return tuple(list(self._walk()))

    def _walk(self) -> Iterator[Vertex]:
        """The vertices, one at a time."""
        x, level = self.start
        return zip(
            accumulate(map(_DX.__getitem__, self.steps), initial=x),
            accumulate(map(_DL.__getitem__, self.steps), initial=level),
        )

    def vertex_at(self, pos: int) -> Vertex:
        """The vertex reached after the first ``pos`` steps, read off the
        step counts of that prefix."""
        x, level = self.start
        head = self.steps[:pos]
        down = head.count("S")
        return (x + len(head) - down, level - down + head.count("N"))

    @property
    def end(self) -> Vertex:
        return self.vertex_at(len(self.steps))

    @property
    def left_len(self) -> int:
        """Number of leading Left (E/S) steps."""
        hits = [idx for idx in map(self.steps.find, RIGHT_STEPS) if idx >= 0]
        return min(hits, default=len(self.steps))

    @property
    def junction(self) -> Vertex:
        return self.vertex_at(self.left_len)


@dataclass(frozen=True)
class MixedConfiguration:
    paths: tuple[MixedPath, ...]

    def __post_init__(self):
        if isinstance(self.paths, list):  # frozen as a tuple
            object.__setattr__(self, "paths", tuple(self.paths))

    @property
    def n(self) -> int:
        if "paths" in self.__dict__:
            return len(self.paths)
        return self._table.n

    def step_count(self, kind: str) -> int:
        return sum(p.steps.count(kind) for p in self.paths)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "paths": [{"start": list(p.start), "steps": p.steps} for p in self.paths],
        }


# a configuration that keeps only its table writes its paths on their first read
MixedConfiguration.paths = cached_property(lambda self: _paths(self._table))
MixedConfiguration.paths.__set_name__(MixedConfiguration, "paths")


def config_from_json(obj: dict | str) -> MixedConfiguration:
    if isinstance(obj, str):
        obj = json_object(obj)
    try:
        paths = []
        for p in obj["paths"]:
            x, level = p["start"]
            paths.append(MixedPath((json_int(x, "start x"), json_int(level, "start level")),
                                   str(p["steps"])))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"configuration JSON needs paths with start and steps: {exc}") from exc
    for p in paths:
        for s in p.steps:
            if s not in STEP_DELTAS:
                raise ParseError(f"unknown step {s!r}")
    return MixedConfiguration(tuple(paths))


# ---------------------------------------------------------------------------
# validation


def validate_config(cfg: MixedConfiguration) -> MixedConfiguration:
    """Return ``cfg`` if it is a valid configuration; raise
    :class:`MalformedConfiguration` listing every problem found as
    ``.problems`` otherwise.

    Checks the grid bounds, start vertices, Left-before-Right step order,
    the endpoint permutation and vertex-disjointness of the Left and the
    Right sub-configurations, by :func:`_check_paths`.

    A configuration that keeps its table (:func:`config_from_table`) is
    valid, and is returned at once.  One found valid is marked
    (``_valid``, by the keep rule of ``asmc.cells``) and returned at once
    when checked again; a valid one has tuple starts and string steps, so
    nothing can change under the mark.
    """
    if isinstance(cfg, MixedConfiguration) and ("_table" in cfg.__dict__ or "_valid" in cfg.__dict__):
        return cfg
    object.__setattr__(_check_paths(cfg), "_valid", True)
    return cfg


def _check_paths(cfg: MixedConfiguration) -> MixedConfiguration:
    """The checks of :func:`validate_config` on the paths of ``cfg``,
    whether or not it is marked or keeps a table; returns ``cfg`` or raises
    :class:`MalformedConfiguration`.

    Every step moves x up or keeps it, and none lowers ``x - level``, so a
    path stays in the grid when its start has ``x >= 0``, its end has
    ``x < level`` and its top level (the higher of its start and end
    levels, Left steps before Right ones) is at most n.  Two parts meet
    only if two of their runs on one level overlap.  The vertices of a
    path are walked only to name a problem these checks have found, and
    an off-grid path only up to its first vertex off the grid.
    """
    if not isinstance(cfg, MixedConfiguration):
        raise MalformedConfiguration(f"expected a MixedConfiguration, got {type(cfg).__name__}")
    if not isinstance(cfg.paths, tuple) or not all(isinstance(p, MixedPath) for p in cfg.paths):
        raise MalformedConfiguration("paths must be a tuple of MixedPath")
    problems: list[str] = []
    n = cfg.n
    ends, runs = [], []  # end vertex and (Left, Right) runs of each path
    for i, p in enumerate(cfg.paths, start=1):
        if type(p.steps) is not str:
            problems.append(f"path {i}: steps {p.steps!r} are not a string")
            raise MalformedConfiguration(*problems)
        if not STEP_DELTAS.keys() >= set(p.steps):
            s = next(s for s in p.steps if s not in STEP_DELTAS)
            problems.append(f"path {i}: unknown step {s!r}")
            raise MalformedConfiguration(*problems)
        if p.start != (0, i):
            problems.append(f"path {i} starts at {p.start}, expected (0, {i})")
            if type(p.start) is not tuple or list(map(type, p.start)) != [int, int]:
                raise MalformedConfiguration(*problems)
        left = p.left_len
        late = p.steps[left:].lstrip(RIGHT_STEPS)  # starts at the first Left step after a Right one
        if late:
            problems.append(f"path {i}: Left step {late[0]!r} after a Right step")
        (x0, l0), (x1, l1) = p.start, p.end
        if late or x0 < 0 or x1 >= l1 or max(l0, l1) > n:
            bad = next((v for v in p._walk() if not 0 <= v[0] < v[1] <= n), None)
            if bad is not None:
                problems.append(f"path {i} leaves the grid at ({bad[0]},{bad[1]})")
        ends.append((x1, l1))
        runs.append(_runs(p, left))
    if problems:
        raise MalformedConfiguration(*problems)
    sigma = [level for _, level in ends]
    if sorted(sigma) != list(range(1, n + 1)):
        problems.append(f"end levels {sigma} are not a permutation of 1..{n}")
    for i, (x, level) in enumerate(ends, start=1):
        if x != level - 1:
            problems.append(f"path {i} ends at {(x, level)}, not on the diagonal")
    for part, label in enumerate(("Left", "Right")):
        if not _overlap(sorted(chain.from_iterable(r[part] for r in runs))):
            continue
        seen: dict[Vertex, int] = {}
        for i, p in enumerate(cfg.paths, start=1):
            verts, left = p.vertices(), p.left_len
            for v in (verts[: left + 1], verts[left:])[part]:
                if v in seen:
                    problems.append(
                        f"{label} parts of paths {seen[v]} and {i} meet at {v}"
                    )
                else:
                    seen[v] = i
    if problems:
        raise MalformedConfiguration(*problems)
    return cfg


def _runs(p: MixedPath, left: int) -> tuple[list[Run], list[Run]]:
    """The ``(level, first x, last x)`` runs of the Left part (the first
    ``left`` steps) and of the Right part, for a path whose Left steps all
    precede its Right steps.

    A Left part visits each level it meets along one run of E-steps
    (an S-step goes down a level), and a Right part along one run of
    F-steps (an N-step goes up one); both parts hold the junction.
    """
    x, level = p.start
    out: tuple[list, list] = ([], [])
    for run in p.steps[:left].split("S"):
        out[0].append((level, x, x + len(run)))
        x, level = x + len(run), level - 1
    level += 1  # the junction is on the last Left level
    for run in p.steps[left:].split("N"):
        out[1].append((level, x, x + len(run)))
        x, level = x + len(run) + 1, level + 1
    return out


def _overlap(runs: list[Run]) -> bool:
    """Whether two of the sorted ``(level, first x, last x)`` runs share a
    vertex; if any two do, two neighbours in the order do."""
    return any(l1 == l2 and first <= last
               for (l1, _, last), (l2, first, _) in zip(runs, runs[1:]))


# ---------------------------------------------------------------------------
# encoding / decoding neutral pairs


def config_from_pair(pair: NeutralPair) -> MixedConfiguration:
    """Encode a neutral pair as a mixed configuration with one N-step."""
    return config_from_table(gen_table(pair))


def config_from_table(t: GenInvTable) -> MixedConfiguration:
    """Build the configuration straight from a generalized inversion
    table.

    A configuration built this way is valid exactly when its table is, so
    the table check (:func:`table_valid`, O(n)) stands in for the walk of
    its paths: the configuration of a valid table keeps the table, as
    ``_table``, and its paths are written on their first read (see the
    module docstring).  A table failing conditions 1-4 yields a plain
    configuration that :func:`validate_config` rejects; one failing
    condition 0 (not a table, or entries that are not non-negative
    ``int``) raises :class:`InvalidTable`.

    >>> cfg = config_from_table(GenInvTable(k=3, a=(0, 0, 1), b=0, beta=0))
    >>> vars(cfg)
    {'_table': GenInvTable(k=3, a=(0, 0, 1), b=0, beta=0)}
    >>> [p.steps for p in cfg.paths], 'paths' in vars(cfg)
    (['', 'NF', 'ES'], True)
    >>> bad = config_from_table(GenInvTable(k=3, a=(0, 1, 1), b=0, beta=0))
    >>> validate_config(bad)  # doctest: +ELLIPSIS
    Traceback (most recent call last):
    asmc.errors.MalformedConfiguration: Left parts of paths 2 and 3 meet at (1, 2); ...
    >>> config_from_table(None)
    Traceback (most recent call last):
    asmc.errors.InvalidTable: condition 0: expected a GenInvTable, got NoneType
    """
    try:
        table_valid(t)
    except InvalidTable as exc:
        if exc.condition == 0:
            raise
        return MixedConfiguration(_paths(t))
    return _on_demand(t)


def _paths(t: GenInvTable) -> tuple[MixedPath, ...]:
    """The paths of table ``t``, one per entry of ``a``: the one path
    writer, whose paths are a valid configuration exactly when ``t`` is a
    valid table."""
    n, k = t.n, t.k
    paths = []
    for i in range(1, n + 1):
        a = t.a[i - 1]
        if i == k - 1:
            steps = "E" * a + "F" * t.beta + "N" + "F" * (k - 2 - a - t.beta)
        elif i == k:
            steps = "E" * a + "S" + "E" * t.b + "F" * (k - 2 - a - t.b)
        else:
            steps = "E" * a + "F" * (i - 1 - a)
        paths.append(MixedPath((0, i), steps))
    return tuple(paths)


def _on_demand(t: GenInvTable) -> MixedConfiguration:
    """The configuration of a valid table, keeping it; the configuration is
    written from it."""
    cfg = object.__new__(MixedConfiguration)
    object.__setattr__(cfg, "_table", t)
    return cfg


def table_from_config(cfg: MixedConfiguration) -> GenInvTable:
    """The generalized inversion table of a one-N configuration: the one it
    keeps, or the one read off its step strings.  Left steps precede
    Right ones, so path k-1 is ``E^a F^beta N F...``, path k is
    ``E^a S E^b F...`` and every other path ``E^a F...``.  Raises
    :class:`MalformedConfiguration` on a read table that
    :func:`table_valid` rejects."""
    t = cfg.__dict__.get("_table") if isinstance(cfg, MixedConfiguration) else None
    if t is not None:
        return t
    k = _special_k(cfg)
    a = [p.steps.count("E") for p in cfg.paths]
    # no S-step precedes the two special steps, so their x is their position
    s_x = cfg.paths[k - 1].steps.index("S")
    beta = cfg.paths[k - 2].steps.index("N") - a[k - 2]
    b = a[k - 1] - s_x
    a[k - 1] = s_x
    try:
        return table_valid(GenInvTable(k=k, a=tuple(a), b=b, beta=beta))
    except InvalidTable as exc:
        raise MalformedConfiguration(f"decoded table is invalid: {exc}") from exc


def _special_k(cfg: MixedConfiguration) -> int:
    """The k of the special pair of a one-N configuration: path k holds
    the one S-step and path k-1 the N-step.  Raises unless ``cfg`` is a
    valid configuration of that shape; an S-step on path 1 would leave
    the grid, so ``k >= 2``."""
    n_steps = validate_config(cfg).step_count("N")
    if n_steps != 1:
        raise NotOneNStep(n_steps)
    if cfg.step_count("S") != 1:
        raise MalformedConfiguration("expected exactly one S-step")
    k = next(i for i, p in enumerate(cfg.paths, start=1) if "S" in p.steps)
    if "N" not in cfg.paths[k - 2].steps:
        raise MalformedConfiguration(
            f"N-step is not in the path just before the S-path (path {k})"
        )
    return k


def pair_from_config(cfg: MixedConfiguration) -> NeutralPair:
    """Decode a one-N configuration back to its neutral pair."""
    return pair_from_table(table_from_config(cfg))


# ---------------------------------------------------------------------------
# parameters and duality


def config_params(cfg: MixedConfiguration) -> ParamVector:
    """The statistics (r, i, E, B, J) of a one-N configuration, read off
    its table (:func:`table_from_config`, :func:`table_params`)."""
    return table_params(table_from_config(cfg))


def dual_config(cfg: MixedConfiguration) -> MixedConfiguration:
    """Path duality, an involution matching vertical reflection of the
    underlying matrix: junctions, S-starts and N-ends move through the
    mirror ``(x, l) -> (l-1-x, l)`` of each level's vertex row.  Defined
    for configurations with zero or one N-step.

    With one N-step, the dual is the configuration of the dual table
    (:func:`dual_table`), written on first read.  With none, every path
    ``i`` is ``E^a F^(i-1-a)`` for the inversion table ``a`` of a
    permutation, and the dual complements it.
    """
    if "_table" not in vars(validate_config(cfg)):
        n_steps = cfg.step_count("N")
        if n_steps == 0:
            return MixedConfiguration(tuple(
                MixedPath((0, i), "E" * (i - 1 - a) + "F" * a)
                for i, a in enumerate((p.steps.count("E") for p in cfg.paths), start=1)
            ))
        if n_steps > 1:
            raise MalformedConfiguration(
                f"duality is defined for at most one N-step, got {n_steps}"
            )
    return _on_demand(dual_table(table_from_config(cfg)))


# ---------------------------------------------------------------------------
# rendering


def render_ascii(cfg: MixedConfiguration) -> str:
    """Deterministic plain-text picture.

    One line per level from n (top) down to 1, interleaved with connector
    lines; grid vertices are two columns apart.  Characters: ``o`` vertex
    on a path, ``.`` unused grid vertex, ``-`` E-step, ``=`` F-step,
    ``|`` S-step, ``/`` N-step.  Raises :class:`MalformedConfiguration`
    on a configuration :func:`validate_config` rejects.
    """
    n = validate_config(cfg).n
    level_chars = {level: ["."] * (2 * level - 1) for level in range(1, n + 1)}
    for level, chars in level_chars.items():
        for x in range(level - 1):
            chars[2 * x + 1] = " "
    connector_chars = {level: [" "] * (2 * level - 1) for level in range(2, n + 1)}

    def mark_level(level: int, col: int, char: str) -> None:
        row = level_chars[level]
        if char == "-" or row[col] != "-":  # E wins over F on shared edges
            row[col] = char

    for p in cfg.paths:
        verts = p.vertices()
        for v in verts:
            level_chars[v[1]][2 * v[0]] = "o"
        for pos, s in enumerate(p.steps):
            x, level = verts[pos]
            if s == "E":
                mark_level(level, 2 * x + 1, "-")
            elif s == "F":
                mark_level(level, 2 * x + 1, "=")
            elif s == "S":
                connector_chars[level][2 * x] = "|"
            elif s == "N":
                connector_chars[level + 1][2 * x + 1] = "/"
    lines = []
    for level in range(n, 0, -1):
        lines.append("".join(level_chars[level]).rstrip())
        if level > 1:
            lines.append("".join(connector_chars[level]).rstrip())
    return "\n".join(lines) + "\n"


_SVG_STYLE = """\
  <style>
    line { stroke-width: 3; stroke-linecap: round; }
    .step-E { stroke: #1565c0; }
    .step-S { stroke: #c62828; }
    .step-F { stroke: #2e7d32; stroke-dasharray: 6 3; }
    .step-N { stroke: #ef6c00; }
    .grid { fill: #bbbbbb; }
    .mark { fill: #222222; }
    text { font: 12px sans-serif; fill: #222222; }
  </style>
"""


def render_svg(cfg: MixedConfiguration) -> str:
    """Standalone SVG document with labeled start/end vertices and one
    stroke class per step kind.  Raises :class:`MalformedConfiguration`
    on a configuration :func:`validate_config` rejects."""
    n = validate_config(cfg).n
    scale, margin = 40, 40

    def px(v: Vertex) -> tuple[float, float]:
        x, level = v
        return (margin + scale * x, margin + scale * (n - level))

    width = margin * 2 + scale * max(n - 1, 1)
    height = margin * 2 + scale * (n - 1)
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        _SVG_STYLE,
    ]
    for level in range(1, n + 1):
        for x in range(level):
            cx, cy = px((x, level))
            out.append(f'  <circle class="grid" cx="{cx:g}" cy="{cy:g}" r="2"/>')
    for i, p in enumerate(cfg.paths, start=1):
        verts = p.vertices()
        out.append(f'  <g id="path-{i}">')
        for pos, s in enumerate(p.steps):
            (x1, y1), (x2, y2) = px(verts[pos]), px(verts[pos + 1])
            out.append(
                f'    <line class="step-{s}" x1="{x1:g}" y1="{y1:g}" x2="{x2:g}" y2="{y2:g}"/>'
            )
        (sx, sy), (ex, ey) = px(verts[0]), px(verts[-1])
        out.append(f'    <circle class="mark" cx="{sx:g}" cy="{sy:g}" r="4"/>')
        out.append(f'    <text x="{sx - 16:g}" y="{sy + 4:g}">{i}</text>')
        out.append(f'    <circle class="mark" cx="{ex:g}" cy="{ey:g}" r="4"/>')
        out.append(f'    <text x="{ex + 6:g}" y="{ey + 4:g}">{i}\'</text>')
        out.append("  </g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"
