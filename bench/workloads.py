"""Seeded scenario generators for the benchmark workloads.

Every workload is built from one or more copies of the bundled
Patient/Doctor/Researcher "triangle" (see ``cascade_delete.scenario.json``):

    Patient   D1(a0,a1,a2,a3,a4)  --L13-->  D13  <--L31--  D3(a0,a1,a2,a4,a5)  Doctor
    Researcher D2(a1,a5,a6)       --L23-->  D23  <--L32--  D3

The generators use only ``random.Random(seed)``, so a seed always yields the
same scenario document, byte for byte. They keep a plain-Python model of each
triangle's rows to pick valid edit targets, and ``self_check`` re-verifies the
document against the conditions a run needs to measure propagation rather than
a scenario bug (initial views agree, view-key FDs hold, every proposal is
permitted, no insert goes through a lens that cannot insert).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

D1_ATTRS = ("a0", "a1", "a2", "a3", "a4")
D3_ATTRS = ("a0", "a1", "a2", "a4", "a5")
D2_ATTRS = ("a1", "a5", "a6")
VIEW13 = ("a0", "a1", "a2", "a4")
VIEW23 = ("a1", "a5")

PATIENT_A2 = "patient_a2"
DOCTOR_A2 = "doctor_a2"
DOCTOR_A4 = "doctor_a4"
DOCTOR_INSERT = "doctor_insert"
RESEARCHER_A5 = "researcher_a5"
RESEARCHER_DELETE = "researcher_delete"
KINDS = (PATIENT_A2, DOCTOR_A4, DOCTOR_INSERT, RESEARCHER_A5, RESEARCHER_DELETE)
# Single-cell updates of D13's view: kind -> (who, base table, model column, attribute).
CELL_UPDATES = {
    PATIENT_A2: ("patient", "D1", 0, "a2"),
    DOCTOR_A2: ("doctor", "D3", 0, "a2"),
    DOCTOR_A4: ("doctor", "D3", 2, "a4"),
}

# Attributes of each share's view that an edit kind changes, and whether it
# adds view keys (an insert the receiving lens must be able to embed).
KIND_EFFECTS = {
    PATIENT_A2: {"D13": ({"a2"}, False)},
    DOCTOR_A2: {"D13": ({"a2"}, False)},
    DOCTOR_A4: {"D13": ({"a4"}, False)},
    DOCTOR_INSERT: {"D13": (set(VIEW13), True), "D23": (set(VIEW23), True)},
    RESEARCHER_A5: {"D23": ({"a5"}, False)},
    RESEARCHER_DELETE: {"D23": (set(VIEW23), False)},
}
# A medication delete reaches D1 through a cascade the Doctor proposes on D13.
CASCADE_EFFECTS = {RESEARCHER_DELETE: {"D13": (set(VIEW13), False)}}


class GenerationError(Exception):
    """A generated scenario breaks a condition the benchmark relies on."""


@dataclass
class Triangle:
    """Names of one Patient/Doctor/Researcher triangle plus a model of its rows."""

    suffix: str
    patient: str
    doctor: str
    researcher: str
    rows: dict = field(default_factory=dict)  # (a0, a1) -> [a2, a3, a4]
    meds: dict = field(default_factory=dict)  # a1 -> [a5, a6]
    deletes: int = 0

    def tid(self, base: str) -> str:
        return base + self.suffix



@dataclass(frozen=True)
class Workload:
    """A generated scenario document plus what the benchmark needs to judge a run."""

    name: str
    doc: dict
    edits: tuple  # (due tick, principal, table id, kind), in script order
    closed_loop: bool  # each edit completes before the next one is due
    triangles: tuple
    tail_pct: int  # the percentile reported as edit_ms_tail; at least ten edits lie beyond it


class _Values:
    """Fresh cell values; a counter keeps every generated value unique."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.n = 0

    def __call__(self, prefix: str) -> str:
        self.n += 1
        return f"{prefix}{self.n}-{self.rng.randrange(10**6):06d}"


def _fill(tri: Triangle, n_patients: int, meds_per_patient: int, n_meds: int, val: _Values) -> None:
    """Patients each take `meds_per_patient` distinct medications; every medication is used."""
    meds = [val("Med") for _ in range(n_meds)]
    for m in meds:
        tri.meds[m] = [val("MeA"), val("MoA")]
    order = list(range(n_meds))
    val.rng.shuffle(order)
    for p in range(n_patients):
        pid = val("P")
        addr = val("Addr")
        for j in range(meds_per_patient):
            m = meds[order[(p * meds_per_patient + j) % n_meds]]
            tri.rows[(pid, m)] = [val("note"), addr, val("dose")]


def _tables(tri: Triangle) -> dict:
    d1 = [[p, m, c[0], c[1], c[2]] for (p, m), c in tri.rows.items()]
    d3 = [[p, m, c[0], c[2], tri.meds[m][0]] for (p, m), c in tri.rows.items()]
    d2 = [[m, c[0], c[1]] for m, c in tri.meds.items()]
    return {
        tri.patient: [{"id": tri.tid("D1"), "schema": {"attrs": list(D1_ATTRS), "key": ["a0", "a1"]}, "rows": d1}],
        tri.doctor: [{"id": tri.tid("D3"), "schema": {"attrs": list(D3_ATTRS), "key": ["a0", "a1"]}, "rows": d3}],
        tri.researcher: [{"id": tri.tid("D2"), "schema": {"attrs": list(D2_ATTRS), "key": ["a1"]}, "rows": d2}],
    }


def _lenses(tri: Triangle) -> dict:
    def spec(lid, src, attrs, key):
        return {"lens_id": tri.tid(lid), "source": tri.tid(src), "view_attrs": list(attrs), "view_key": list(key)}

    return {
        tri.patient: [spec("L13", "D1", VIEW13, ("a0", "a1"))],
        tri.doctor: [spec("L31", "D3", VIEW13, ("a0", "a1")), spec("L32", "D3", VIEW23, ("a1",))],
        tri.researcher: [spec("L23", "D2", VIEW23, ("a1",))],
    }


def _shares(tri: Triangle) -> list:
    d, p, r = tri.doctor, tri.patient, tri.researcher
    return [
        {
            "shared_id": tri.tid("D13"),
            "deployer": d,
            "authority": d,
            "peers": {p: tri.tid("L13"), d: tri.tid("L31")},
            "perm": {"a0": [d], "a1": [d], "a2": [d, p], "a4": [d]},
        },
        {
            "shared_id": tri.tid("D23"),
            "deployer": d,
            "authority": d,
            "peers": {r: tri.tid("L23"), d: tri.tid("L32")},
            "perm": {"a1": [d, r], "a5": [d, r]},
        },
    ]


def _edit(tri: Triangle, kind: str, val: _Values) -> list:
    """Apply one edit of `kind` to the model; return its (principal, action) pairs."""
    rng = val.rng
    if kind in CELL_UPDATES:
        role, base, col, attr = CELL_UPDATES[kind]
        who = getattr(tri, role)
        p, m = rng.choice(list(tri.rows))
        tri.rows[(p, m)][col] = val(attr)
        edit = {
            "kind": "edit",
            "table": tri.tid(base),
            "op": "update",
            "key": {"a0": p, "a1": m},
            "changes": {attr: tri.rows[(p, m)][col]},
        }
        return [(who, edit), (who, {"kind": "propose", "shared_id": tri.tid("D13")})]
    if kind == DOCTOR_INSERT:
        p = rng.choice(list(tri.rows))[0]
        m = val("Med")
        tri.meds[m] = [val("MeA"), None]
        tri.rows[(p, m)] = [val("note"), None, val("dose")]
        row = {"a0": p, "a1": m, "a2": tri.rows[(p, m)][0], "a4": tri.rows[(p, m)][2], "a5": tri.meds[m][0]}
        return [
            (tri.doctor, {"kind": "edit", "table": tri.tid("D3"), "op": "insert", "row": row}),
            (tri.doctor, {"kind": "propose", "shared_id": tri.tid("D13")}),
            (tri.doctor, {"kind": "propose", "shared_id": tri.tid("D23")}),
        ]
    m = rng.choice(list(tri.meds))
    if kind == RESEARCHER_A5:
        tri.meds[m][0] = val("MeA")
        edit = {"kind": "edit", "table": tri.tid("D2"), "op": "update", "key": {"a1": m}, "changes": {"a5": tri.meds[m][0]}}
    elif kind == RESEARCHER_DELETE:
        del tri.meds[m]
        for key in [k for k in tri.rows if k[1] == m]:
            del tri.rows[key]
        tri.deletes += 1
        edit = {"kind": "edit", "table": tri.tid("D2"), "op": "delete", "key": {"a1": m}}
    else:
        raise ValueError(f"unknown edit kind {kind!r}")
    return [(tri.researcher, edit), (tri.researcher, {"kind": "propose", "shared_id": tri.tid("D23")})]


def _document(name: str, triangles: list) -> dict:
    """The scenario document for the triangles' current rows, without a script."""
    principals, tables, lenses, shares = [], {}, {}, []
    for tri in triangles:
        for who, docs in _tables(tri).items():
            tables.setdefault(who, []).extend(docs)
        for who, docs in _lenses(tri).items():
            lenses.setdefault(who, []).extend(docs)
        shares.extend(_shares(tri))
        for who in (tri.patient, tri.doctor, tri.researcher):
            if who not in principals:
                principals.append(who)
    return {
        "name": name,
        "principals": principals,
        "tables": tables,
        "lenses": lenses,
        "shares": shares,
    }


def _with_script(doc: dict, script: list, last_tick: int) -> dict:
    # max_cascade_hops keeps its default on purpose: its run-wide count is a
    # known defect of the program, not a setting of the benchmark.
    config = {"max_ticks": last_tick + 50, "network_delay_ticks": 1, "blocks_per_tick": 1}
    return {**doc, "script": script, "config": config}


def _scripted(tri: Triangle, kind: str, tick: int, val: _Values, script: list, edits: list) -> None:
    for who, action in _edit(tri, kind, val):
        script.append({"tick": tick, "principal": who, "action": action})
        if action["kind"] == "edit":
            edits.append((tick, who, action["table"], kind))


# Ticks an edit's causal chain may take before the triangle is idle again:
# a medication delete needs two fetch round trips (D23, then the D13 cascade).
IDLE_TICKS = 10
# many_shares: patients and medications per triangle, so each table has about 4 rows.
ROWS_PER_TRIANGLE = 4


def big_tables(seed: int, n_rows: int = 10_000, n_meds: int = 1_000, per_kind: int = 8) -> Workload:
    """One triangle with large tables; single-row edits, one in flight at a time."""
    rng = random.Random(seed)
    val = _Values(rng)
    tri = Triangle("", "Patient", "Doctor", "Researcher")
    _fill(tri, n_rows // 4, 4, n_meds, val)
    doc = _document("big_tables", [tri])
    kinds = [k for k in KINDS for _ in range(per_kind)]
    rng.shuffle(kinds)
    script, edits = [], []
    for i, kind in enumerate(kinds):
        _scripted(tri, kind, 1 + i * IDLE_TICKS, val, script, edits)
    doc = _with_script(doc, script, len(kinds) * IDLE_TICKS)
    return Workload("big_tables", doc, tuple(edits), True, (tri,), tail_pct=75)


def many_shares(seed: int, n_patients: int = 128, per_tick: int = 8, n_ticks: int = 400) -> Workload:
    """One Doctor hub and one Researcher serving many patients: many shares, tiny tables.

    Open loop on the tick clock: each tick, `per_tick` edits fall due on
    triangles whose previous edit has had IDLE_TICKS ticks to settle.
    """
    rng = random.Random(seed)
    val = _Values(rng)
    triangles = []
    for i in range(n_patients):
        tri = Triangle(f"_{i:03d}", f"Patient{i:03d}", "Doctor", "Researcher")
        _fill(tri, 1, ROWS_PER_TRIANGLE, ROWS_PER_TRIANGLE, val)
        triangles.append(tri)
    doc = _document("many_shares", triangles)
    last_due = [-IDLE_TICKS] * n_patients
    script, edits = [], []
    for t in range(1, n_ticks + 1):
        idle = [i for i in range(n_patients) if last_due[i] + IDLE_TICKS <= t]
        for i in rng.sample(idle, min(per_tick, len(idle))):
            tri = triangles[i]
            kinds = [k for k in KINDS if k != RESEARCHER_DELETE or (tri.deletes == 0 and len(tri.meds) > 1)]
            _scripted(tri, rng.choice(kinds), t, val, script, edits)
            last_due[i] = t
    doc = _with_script(doc, script, n_ticks)
    # Not p99: about 1% of the edits are in flight during a full garbage
    # collection, so p99 sits on the edge of that group and flips between
    # ~40 and ~50 ms from run to run. p98 stays below the edge.
    return Workload("many_shares", doc, tuple(edits), False, tuple(triangles), tail_pct=98)


def hot_share(
    seed: int, n_rows: int = 1_000, n_meds: int = 250, bursts: int = 3, burst_ticks: int = 30, gap_ticks: int = 10
) -> Workload:
    """Doctor and Patient both update a2 of D13 every other tick, in bursts.

    Contention drives the ledger's BlockedBySerialization/StaleVersion reject
    path and the peers' refetch path; the quiet gap after each burst lets the
    loser catch up so the run length stays linear in the number of bursts.
    """
    rng = random.Random(seed)
    val = _Values(rng)
    tri = Triangle("", "Patient", "Doctor", "Researcher")
    _fill(tri, n_rows // 4, 4, n_meds, val)
    doc = _document("hot_share", [tri])
    script, edits = [], []
    t = 1
    for b in range(bursts):
        for j in range(0, burst_ticks, 2):
            # Alternate which side reaches the mempool first, so both win and lose.
            kinds = (PATIENT_A2, DOCTOR_A2) if (b + j // 2) % 2 else (DOCTOR_A2, PATIENT_A2)
            for kind in kinds:
                _scripted(tri, kind, t + j, val, script, edits)
        t += burst_ticks + gap_ticks
    doc = _with_script(doc, script, t)
    return Workload("hot_share", doc, tuple(edits), False, (tri,), tail_pct=75)


GENERATORS = {"big_tables": big_tables, "many_shares": many_shares, "hot_share": hot_share}


def generate(name: str, seed: int, **sizes) -> Workload:
    """Build the named workload from `seed` and self-check it."""
    workload = GENERATORS[name](seed, **sizes)
    self_check(workload)
    return workload


def _project(doc: dict, principal: str, lens_id: str) -> tuple[set, bool]:
    """A lens's view as a set of tuples, and whether the view-key FD holds on its source."""
    spec = next(s for s in doc["lenses"][principal] if s["lens_id"] == lens_id)
    table = next(t for t in doc["tables"][principal] if t["id"] == spec["source"])
    attrs = table["schema"]["attrs"]
    vidx = [attrs.index(a) for a in spec["view_attrs"]]
    kidx = [attrs.index(a) for a in spec["view_key"]]
    seen: dict = {}
    fd_ok = True
    for row in table["rows"]:
        view_row = tuple(row[i] for i in vidx)
        if seen.setdefault(tuple(row[i] for i in kidx), view_row) != view_row:
            fd_ok = False
    return set(seen.values()), fd_ok


def _inserts_allowed(doc: dict, principal: str, lens_id: str) -> bool:
    spec = next(s for s in doc["lenses"][principal] if s["lens_id"] == lens_id)
    table = next(t for t in doc["tables"][principal] if t["id"] == spec["source"])
    return set(table["schema"]["key"]) <= set(spec["view_attrs"])


def self_check(workload: Workload) -> None:
    """Raise GenerationError unless the scenario can only measure propagation.

    A denied proposal leaves a permanent local divergence and an insert through
    a lens that cannot insert raises inside the receiving peer, so either would
    make a run measure a scenario bug instead of the system.
    """
    doc = workload.doc
    shares = {s["shared_id"]: s for s in doc["shares"]}
    for sid, share in shares.items():
        views = []
        for principal, lens_id in sorted(share["peers"].items()):
            view, fd_ok = _project(doc, principal, lens_id)
            if not fd_ok:
                raise GenerationError(f"{sid}: view-key FD fails on {principal}'s source")
            views.append(view)
        if views[0] != views[1]:
            raise GenerationError(f"{sid}: the peers' initial views disagree")
    by_suffix = {tri.suffix: tri for tri in workload.triangles}
    for tick, principal, table, kind in workload.edits:
        tri = by_suffix[table[2:]]
        proposals = [(principal, base, eff) for base, eff in KIND_EFFECTS[kind].items()]
        proposals += [(tri.doctor, base, eff) for base, eff in CASCADE_EFFECTS.get(kind, {}).items()]
        for proposer, base, (attrs, inserts) in proposals:
            share = shares[tri.tid(base)]
            denied = sorted(a for a in attrs if proposer not in share["perm"][a])
            if denied:
                raise GenerationError(f"tick {tick}: {proposer} may not change {denied} of {share['shared_id']}")
            if inserts:
                for receiver, lens_id in share["peers"].items():
                    if receiver != proposer and not _inserts_allowed(doc, receiver, lens_id):
                        raise GenerationError(f"tick {tick}: {lens_id} at {receiver} cannot insert")
