"""The log's format (schema, packed record, CSV, the result a run returns)
and the outcome metrics folded from a run's log."""

import math
import operator
import struct
from dataclasses import asdict, dataclass, field
from functools import reduce
from itertools import chain

import numpy as np

from .supervisor import Mode, SupervisorState

CSV_COLUMNS = [
    "t", "px", "py", "pz", "vx", "vy", "vz", "pitch",
    "qw", "qx", "qy", "qz", "wx", "wy", "wz",
    "mode", "attached", "eta_d", "eta",
    "T1", "T2", "T3", "T4", "Tcmd1", "Tcmd2", "Tcmd3", "Tcmd4",
    "nu1", "nu2", "nu3", "nu4",
    "dhatx", "dhaty", "dhatz", "lambda_hat", "lambda_true",
    "eR_norm", "ep_norm", "sat_any",
]

# A log row is one float64 record: the CSV's numbers in column order (mode
# is put in only when a line is rendered), then the unprinted magnet gap.
_NUM_COLUMNS = tuple(c for c in CSV_COLUMNS if c != "mode")
_RECORD = _NUM_COLUMNS + ("gap",)
_COL = {name: i for i, name in enumerate(_RECORD)}
_T, _PZ, _ER, _EP, _SAT, _GAP = (
    _COL[c] for c in ("t", "pz", "eR_norm", "ep_norm", "sat_any", "gap"))
# A row packs one _RECORD of float64s; _PRINTED unpacks its printed numbers
# and skips the unprinted names after them.
_ROW = struct.Struct("%dd" % len(_RECORD))
_PRINTED = struct.Struct("%dd%dx" % (len(_NUM_COLUMNS),
                                     8 * (len(_RECORD) - len(_NUM_COLUMNS))))
_MODE_POS = CSV_COLUMNS.index("mode")
_CSV_LINE = {m.value: "%.12g," * _MODE_POS + m.value
             + ",%.12g" * (len(_NUM_COLUMNS) - _MODE_POS) + "\n" for m in Mode}
_HEADER = ",".join(CSV_COLUMNS) + "\n"


@dataclass
class Metrics:
    """Outcome measures; each attribute is named as its metrics.json key."""
    perch_achieved: bool = False
    perch_time_s: float = math.nan
    time_to_perch_s: float = math.nan
    unperch_achieved: bool = False
    release_time_s: float = math.nan
    z_drop_m: float = math.nan
    min_clearance_m: float = math.nan
    saturation_fraction: dict = field(default_factory=dict)
    max_eR_rad: dict = field(default_factory=dict)
    settle_time_after_release_s: float = math.nan
    completed: bool = True
    failure: str = ""

    def to_dict(self):
        """The JSON form: NaN (not measured) becomes None."""
        return {k: None if isinstance(v, float) and math.isnan(v) else v
                for k, v in asdict(self).items()}


def settle_index(ok):
    """First index from which the sequence `ok` stays true, or None."""
    j = len(ok)
    while j and ok[j - 1]:
        j -= 1
    return j if j < len(ok) else None


def _nan_max(a, b):
    """The larger float, or NaN if either is NaN, as np.max has it."""
    return a if a >= b or a != a else b


def _nan_min(a, b):
    """The smaller float, or NaN if either is NaN, as np.min has it."""
    return a if a <= b or a != a else b


# Per signal: its value from tick 0, and a map of an event's (kind, detail)
# to the value it sets, or to None off its edges.  "released" ends at the
# next perch command executed, which any attach follows (servo engaged).
_SIGNALS = {"mode": (SupervisorState().mode.value,
                     lambda e: e[1].partition("->")[2]
                     if e[0] == "mode" else None),
            "contact": (0.0, lambda e: float(e[1] == "attach")
                        if e[0] == "contact" else None),
            "released": (False, {("contact", "release"): True,
                                 ("eta_d", "perch"): False}.get)}


def tick_runs(events, dt, kind, start, n):
    """The runs (value, i, j), in order, over which the signal `kind` holds
    one value on ticks start + i .. start + j - 1, covering [start, start +
    n), from `events` in time order, each at tick round(t / dt)."""
    value, of = _SIGNALS[kind]
    a = 0                            # the run of `value` starts at start + a
    for t, k, detail in events:
        new = of((k, detail))
        if new is not None:
            b = round(t / dt) - start
            if b >= n:
                break
            if b > a:
                yield value, a, b
                a = b
            value = new
    if a < n:
        yield value, a, n


class MetricsFold:
    """The log stage: it folds the log's part of the outcome metrics and,
    given a text file `log`, writes the log there as CSV, header first, a
    block of rows at a time.  Blocks come in tick order, and when one is
    fed, `events` holds every event up to its last tick.  The window after
    release is the first "released" run, from the tick after the release."""

    def __init__(self, cfg, events, log=None):
        self.cfg, self.events, self.log = cfg, events, log
        self.by_mode = {}            # mode -> (ticks, saturated, max eR_norm)
        self.ticks = 0               # ticks fed
        self.z_rel = None            # pz at the release tick
        self.after = 0               # ticks in the window after release
        self.z_drop = -math.inf      # max of z_rel - pz in the window
        self.gap_min = math.inf      # min gap in the window
        self.gap_armed = None        # min gap from the window's armed tick
        self.t_settle = None         # t of the final settled run's first tick
        if log is not None:
            log.writelines((_HEADER,))

    def feed(self, rows):
        """Fold in `rows`, the records of the next ticks, and log them."""
        if not len(rows):      # nothing to fold; an empty view will not cast
            return
        start = self.ticks
        self.ticks += len(rows)
        runs = list(tick_runs(self.events, self.cfg.dt, "mode", start,
                              len(rows)))
        # The block's columns, strided views of its float64s, read as floats.
        flat = memoryview(rows).cast("B").cast("d")
        t, pz, eR_norm, ep, sat_any, gap = (
            flat[c::len(_RECORD)] for c in (_T, _PZ, _ER, _EP, _SAT, _GAP))
        for mode, i, j in runs:
            ticks, sat, eR = self.by_mode.get(mode, (0, 0, -math.inf))
            self.by_mode[mode] = (
                ticks + j - i,
                sat + operator.countOf(map((0.5).__lt__, sat_any[i:j]), True),
                reduce(_nan_max, eR_norm[i:j], eR))
        if self.log is not None:
            self.log.writelines(_csv_lines(rows, runs))
        k_rel, k_end = next(((i, j) for on, i, j in tick_runs(
            self.events, self.cfg.dt, "released", 0, self.ticks) if on),
            (self.ticks, self.ticks))
        if start <= k_rel < self.ticks:
            self.z_rel = pz[k_rel - start]
        a, b = max(k_rel + 1 - start, 0), k_end - start
        if a >= b:
            return
        self.after += b - a
        self.z_drop = reduce(_nan_max, map(self.z_rel.__sub__, pz[a:b]),
                             self.z_drop)
        g = gap[a:b]
        g_min = reduce(_nan_min, g)
        self.gap_min = _nan_min(self.gap_min, g_min)
        if self.gap_armed is not None:
            self.gap_armed = _nan_min(self.gap_armed, g_min)
        else:
            arm = self.cfg.clearance_arm
            first = next((k for k, x in enumerate(g) if x >= arm), None)
            if first is not None:
                self.gap_armed = reduce(_nan_min, g[first:])
        j = settle_index([x < self.cfg.settle_tol for x in ep[a:b]])
        if j is None:
            self.t_settle = None
        elif j or self.t_settle is None:
            self.t_settle = t[a + j]


def compute_metrics(fold):
    """Outcome measures of a run, read from its events and from `fold`,
    which has been fed its whole log."""
    if not fold.by_mode:
        raise ValueError("cannot compute metrics from an empty log")
    first = {}                       # (kind, detail up to ":") -> time
    for te, kind, detail in fold.events:
        first.setdefault((kind, detail.partition(":")[0]), te)
    failure = next((d for k, d in first if k == "failure"), "")
    m = Metrics(completed=not failure, failure=failure)

    t_signal = first.get(("operator", "s_f2p"))
    t_attach = first.get(("contact", "attach"))
    if t_attach is not None:
        m.perch_achieved = True
        m.perch_time_s = t_attach
        if t_signal is not None:
            m.time_to_perch_s = t_attach - t_signal
    t_release = first.get(("contact", "release"))
    if t_release is not None:
        m.unperch_achieved = True
        m.release_time_s = t_release
        if fold.after:
            m.z_drop_m = fold.z_drop
            if fold.gap_min < 0.0:
                # Wall penetration after release is re-contact regardless of
                # how far the vehicle got first.
                m.min_clearance_m = fold.gap_min
            elif fold.gap_armed is not None:
                m.min_clearance_m = fold.gap_armed
            else:
                m.min_clearance_m = fold.gap_min
            # settling: first time ep stays below tolerance for good
            if fold.t_settle is not None:
                m.settle_time_after_release_s = fold.t_settle - t_release

    for mode in Mode:
        if mode.value in fold.by_mode:
            ticks, sat, eR = fold.by_mode[mode.value]
            m.saturation_fraction[mode.value] = sat / ticks
            m.max_eR_rad[mode.value] = eR
    return m


def _csv_lines(rows, runs):
    """The CSV line of each row, a C-order float64 record, in the mode of
    its run (mode, i, j) of rows[i:j]."""
    return chain.from_iterable(
        map(_CSV_LINE[mode].__mod__, _PRINTED.iter_unpack(rows[i:j]))
        for mode, i, j in runs)


class SimResult:
    """A finished run: its events, metrics, tick count and, unless it was
    streamed to a text file, its rows, (n_ticks, len(_RECORD)), one a tick.
    Its modes, and a streamed run's `attached` flags, are read back from its
    "mode" and "contact" events; a streamed run's other columns and its CSV
    raise ValueError."""

    def __init__(self, cfg, events, metrics, n_ticks, rows=None):
        self.cfg, self.events = cfg, events
        self.metrics, self.n_ticks, self.rows = metrics, n_ticks, rows

    def _runs(self, kind):
        return tick_runs(self.events, self.cfg.dt, kind, 0, self.n_ticks)

    @property
    def modes(self):
        """The mode name of each tick."""
        return [mode for mode, i, j in self._runs("mode") for _ in range(i, j)]

    def column(self, name):
        """The column `name` of _RECORD, one float64 a tick."""
        if self.rows is not None:
            return self.rows[:, _COL[name]]
        if name != "attached":
            raise ValueError(f"a run streamed to a file keeps no {name!r} "
                             "column, only 'attached' from its events")
        return np.array([f for f, i, j in self._runs("contact")
                         for _ in range(i, j)], dtype=np.float64)

    def to_csv(self, fh=None):
        """The log as CSV text, or, given a text file `fh`, written to it a
        line at a time: at most one row is held as floats and text."""
        if self.rows is None:
            raise ValueError("a run streamed to a file keeps no rows")
        rows = np.ascontiguousarray(self.rows, dtype=np.float64)
        lines = chain((_HEADER,), _csv_lines(rows, self._runs("mode")))
        if fh is None:
            return "".join(lines)
        fh.writelines(lines)


# compare's metric deltas, other minus base, and its ordering checks, each
# (key, holds(other, base), check); a key either run left unmeasured (None)
# is in neither.
_DELTA_KEYS = ("z_drop_m", "min_clearance_m", "time_to_perch_s",
               "settle_time_after_release_s")
_ORDERINGS = (("z_drop_m", operator.ge, "other z_drop >= base z_drop"),
              ("min_clearance_m", operator.le,
               "other min_clearance <= base min_clearance"))


def compare(variant_a, metrics_a, variant_b, metrics_b):
    """Side-by-side metric deltas and ablation-ordering checks, as JSON."""
    ma, mb = metrics_a.to_dict(), metrics_b.to_dict()
    both = [k for k in _DELTA_KEYS if ma[k] is not None and mb[k] is not None]
    return {
        "base_variant": variant_a,
        "other_variant": variant_b,
        "metric_deltas": {k: mb[k] - ma[k] for k in both},
        "orderings": [{"check": check, "holds": holds(mb[k], ma[k])}
                      for k, holds, check in _ORDERINGS if k in both],
    }
