"""The three workloads: their inputs, their operation streams and their runs.

Every input comes from the workload seed: the directory (a
``random_instance`` dumped to LDIF), the query pool, the ACL and the write
sequence.  The service sees only the LDIF text, query text and write
calls.  Each workload has one client in a closed loop: it sends the next
operation when the previous one has returned.

The query pools are written from shapes rather than drawn blindly, so that
the cost of a run depends on the shapes and sizes chosen here, not on
which rare expensive query a seed happens to draw: shape ``i`` of a cycle
goes to every ``i``-th pool slot (and popularity rank), leaf bases come
from a band of subtree sizes, and the hot pools keep each answer within a
band of sizes.
"""

from __future__ import annotations

import bisect
import gc
import os
import random
import shutil
import time
from collections import Counter
from typing import Dict, List, Sequence

from repro.model.ldif import dumps_ldif, loads_ldif
from repro.security import AccessControlList
from repro.server import DirectoryService
from repro.server.service import ResultCode
from repro.workload import random_instance
from repro.workload.generator import synthetic_schema

import oracle
from oracle import Directory, Rules, parent_of, render

KINDS = ("alpha", "beta", "gamma", "delta")
CLIENT_DN = "name=bench-client"
CLIENT_SECRET = "bench-secret"
#: The first search of every set-up (pays the first statistics collection).
SETUP_QUERY = ("atom", "", "sub", ("eq", "kind", "alpha"))
#: Depths (RDN count minus one) of the hot pools' leaf bases.
BASE_DEPTHS = (8, 9)
#: The write probe of a read-only workload: a container at the top of the
#: directory, then bursts of rounds of add a leaf under it, modify the
#: leaf, delete it -- writes whose cost does not hang on the tree's shape.
#: A search folds each burst in, so the pending overlay stays small.
PROBE_BURSTS = 4
PROBE_ROUNDS = 70
PROBE_DN = "name=probe"


class Spec:
    """What one workload is made of."""

    def __init__(self, name, size, pool, skew, write_every, acl, durable,
                 warm_rounds, min_ops):
        self.name = name
        self.size = size
        self.pool = pool            # distinct queries
        self.skew = skew            # Zipf exponent, None for a pool walk
        self.write_every = write_every  # writes per round of 10, 0 = read-only
        self.acl = acl
        self.durable = durable
        self.warm_rounds = warm_rounds
        #: Timed operations every run completes, however slow the machine;
        #: the tail percentiles are chosen for this many samples.
        self.min_ops = min_ops


SPECS = {
    "hot-cache": Spec("hot-cache", 10_000, 64, 1.2, 0, True, False, 200, 9_000),
    "cold-scan": Spec("cold-scan", 20_000, 1000, None, 0, False, False, 0, 220),
    "write-mix": Spec("write-mix", 10_000, 64, 1.0, 2, False, True, 0, 800),
}

#: Smaller directories for the benchmark's own tests.
SMOKE_SIZES = {"hot-cache": 600, "cold-scan": 900, "write-mix": 600}


# -- inputs -------------------------------------------------------------------


def bench_schema():
    """The synthetic schema plus a credential-holding client class."""
    schema = synthetic_schema()
    schema.add_attribute("userPassword", "string")
    schema.add_class("account", {"name", "userPassword"})
    return schema


def make_ldif(seed: int, size: int, with_client: bool) -> str:
    instance = random_instance(seed, size)
    if with_client:
        instance.schema.add_attribute("userPassword", "string")
        instance.schema.add_class("account", {"name", "userPassword"})
        instance.add(CLIENT_DN, ["account"],
                     {"name": ["bench-client"], "userPassword": [CLIENT_SECRET]})
    return dumps_ldif(instance)


def subtree_sizes(model: Directory) -> Dict[str, int]:
    sizes = {dn: 1 for dn in model.entries}
    for dn in sorted(model.entries, key=lambda d: -d.count(", ")):
        parent = parent_of(dn)
        if parent:
            sizes[parent] += sizes[dn]
    return sizes


def random_filter(rng: random.Random) -> tuple:
    pick = rng.randrange(8)
    if pick == 0:
        return ("eq", "kind", rng.choice(KINDS))
    if pick == 1:
        return ("lt", "weight", rng.randint(10, 90))
    if pick == 2:
        return ("ge", "weight", rng.randint(10, 90))
    if pick == 3:
        return ("present", "tag")
    if pick == 4:
        return ("sub", "tag", rng.choice(["*red*", "re*", "*ish"]))
    if pick == 5:
        return ("lt", "level", rng.randint(2, 8))
    if pick == 6:
        return ("eq", "objectClass", rng.choice(["node", "container"]))
    return ("all",)


def _atom(rng, base, scope="sub"):
    return ("atom", base, scope, random_filter(rng))


def hot_shape(index: int, rng: random.Random, bases: Sequence[str]) -> tuple:
    """Eight two-leaf L0/L1 shapes over small subtrees at one depth
    (hot-cache, write-mix): every hit parses about as much text."""
    b, other = rng.choice(bases), rng.choice(bases)
    shape = index % 8
    if shape == 0:
        return ("&", _atom(rng, b), _atom(rng, b))
    if shape == 1:
        return ("|", _atom(rng, b, "one"), _atom(rng, other, "one"))
    if shape == 2:
        return ("-", _atom(rng, b), _atom(rng, b))
    if shape == 3:
        return ("hier", "d", _atom(rng, b), _atom(rng, b), None, None)
    if shape == 4:
        return ("hier", "c", _atom(rng, b), _atom(rng, b), None, None)
    if shape == 5:
        return ("|", _atom(rng, b), _atom(rng, other))
    if shape == 6:
        return ("hier", "a", _atom(rng, b), _atom(rng, b), None, None)
    return ("hier", "p", _atom(rng, b), _atom(rng, b), None, None)


def cold_shape(index: int, rng: random.Random, bases: Sequence[str]) -> tuple:
    """Ten L0--L3 shapes over large subtrees and the whole directory."""
    b = rng.choice(bases)
    shape = index % 10
    if shape == 0:
        return ("&", _atom(rng, ""), _atom(rng, b))
    if shape == 1:
        return ("hier", "d", _atom(rng, b), _atom(rng, b), None, None)
    if shape == 2:
        return ("|", _atom(rng, b), _atom(rng, rng.choice(bases), "one"))
    if shape == 3:
        return ("g", _atom(rng, b), "weight", rng.randint(20, 80))
    if shape == 4:
        return ("hier", "a", _atom(rng, b), _atom(rng, b), None, None)
    if shape == 5:
        return ("ref", "vd", _atom(rng, b), _atom(rng, rng.choice(bases)), None)
    if shape == 6:
        return ("hier", "c", _atom(rng, b), _atom(rng, b), None, 2)
    if shape == 7:
        return ("ref", "dv", _atom(rng, b), _atom(rng, b), None)
    if shape == 8:
        return ("hier", "dc", _atom(rng, b), _atom(rng, b), _atom(rng, b), None)
    return ("-", _atom(rng, ""), _atom(rng, b))


def make_pool(spec: Spec, model: Directory, rng: random.Random) -> List[tuple]:
    """Distinct queries; slot ``i`` has shape ``i`` of the workload's cycle."""
    sizes = subtree_sizes(model)
    n = len(model.entries)
    if spec.name == "cold-scan":
        lo, hi = n // 40, n // 20
        shape, answer_band = cold_shape, None
    else:
        lo, hi = 8, 64
        shape, answer_band = hot_shape, (4, 12)
    bases = [dn for dn, size in sizes.items()
             if lo <= size <= hi and dn != CLIENT_DN]
    if answer_band is not None:
        # Bases of nine or ten RDNs (of the two most common depths when a
        # small directory has too few): query texts of one length.
        depths = Counter(dn.count(", ") for dn in bases)
        band = BASE_DEPTHS
        if sum(depths[d] for d in band) < 40:
            band = sorted(depths, key=lambda d: (-depths[d], d))[:2]
        bases = [dn for dn in bases if dn.count(", ") in band]
    bases.sort()
    pool: List[tuple] = []
    seen = set()
    for index in range(spec.pool):
        free = bases
        if answer_band is not None:
            # Hot pools read disjoint subtrees, so a write invalidates the
            # one query whose region it lands in (while there are enough).
            taken = {b for query in pool for b in _leaf_bases(query)}
            free = [b for b in bases if not any(_related(b, t) for t in taken)] or bases
        for _ in range(2000):
            query = shape(index, rng, free)
            text = render(query)
            if text in seen:
                continue
            if answer_band is not None:
                size = len(model.evaluate(query))
                if not answer_band[0] <= size <= answer_band[1]:
                    continue
            break
        else:
            raise RuntimeError("no query of shape %d fits its band" % index)
        seen.add(text)
        pool.append(query)
    return pool


def _related(a: str, b: str) -> bool:
    """Is one of two dns the other or its ancestor?"""
    return a == b or a.endswith(", " + b) or b.endswith(", " + a)


def _leaf_bases(query: tuple):
    if query[0] == "atom":
        yield query[1]
        return
    for part in query[1:]:
        if isinstance(part, tuple):
            yield from _leaf_bases(part)


def make_rules(model: Directory, rng: random.Random) -> Rules:
    """A handful of subtree rules for the bound client: read everything
    except two denied subtrees, one re-allowed subtree inside the first,
    and one entry hidden from everybody."""
    sizes = subtree_sizes(model)
    middling = sorted(dn for dn, size in sizes.items()
                      if 50 <= size <= 400 and dn.count(", ") >= 2)
    denied = rng.sample(middling, 2)
    inner = sorted(dn for dn in model.subtree(denied[0])
                   if dn != denied[0] and sizes[dn] >= 2)
    reallowed = rng.choice(inner) if inner else denied[0]
    hidden = rng.choice(sorted(model.entries))
    return Rules([
        (CLIENT_DN, "", True, False),
        (CLIENT_DN, denied[0], False, False),
        (CLIENT_DN, denied[1], False, False),
        (CLIENT_DN, reallowed, True, False),
        ("*", hidden, False, True),
    ])


def service_acl(rules: Rules) -> AccessControlList:
    acl = AccessControlList(default_allow=rules.default)
    for subject, scope, allow, base_only in rules.rules:
        if allow:
            acl.allow(subject, scope, base_only=base_only)
        else:
            acl.deny(subject, scope, base_only=base_only)
    return acl


class Zipf:
    """Ranks 0..n-1 with probability proportional to 1/(rank+1)**skew."""

    def __init__(self, n: int, skew: float, rng: random.Random):
        weights = [1.0 / (rank + 1) ** skew for rank in range(n)]
        total = sum(weights)
        self.cdf = []
        acc = 0.0
        for weight in weights:
            acc += weight / total
            self.cdf.append(acc)
        self.rng = rng

    def draw(self) -> int:
        return min(bisect.bisect_left(self.cdf, self.rng.random()), len(self.cdf) - 1)


class Inputs:
    """Everything a run of one workload needs, made from the seed."""

    def __init__(self, name: str, seed: int, smoke: bool = False):
        self.spec = spec = SPECS[name]
        self.seed = seed
        size = SMOKE_SIZES[name] if smoke else spec.size
        rng = random.Random("%s/%d" % (name, seed))
        self.ldif = make_ldif(seed, size, with_client=spec.acl)
        self.model = Directory.from_ldif(self.ldif)
        self.rules = make_rules(self.model, rng) if spec.acl else None
        self.pool = make_pool(spec, self.model, rng)
        self.texts = [render(query) for query in self.pool]
        # Where a write-mix write lands, per pool query: the subtree of the
        # query's first leaf base.
        self.regions = [sorted(self.model.subtree(next(_leaf_bases(q))))
                        for q in self.pool]
        # A durable modify of an entry holding a dn-valued attribute raises
        # from the WAL encoder (see CHANGES.md), so modifies avoid them.
        self.modifiable = [[dn for dn in region if "ref" not in self.model.entries[dn]]
                           for region in self.regions]
        self.stream_seed = rng.random()

    def stream(self) -> "Stream":
        return Stream(self)


class Stream:
    """The client's operations, in rounds of ten.

    A search is ``("search", pool index)``.  Write-mix writes cycle add,
    modify, delete: an add puts a new leaf under an entry of a region, a
    modify replaces ``kind`` of an entry of a region, and a delete removes
    the oldest leaf this stream added.  The same seed gives the same
    operations, whether or not the run traces them.
    """

    def __init__(self, inputs: Inputs):
        self.inputs = inputs
        spec = inputs.spec
        self.rng = random.Random(inputs.stream_seed)
        self.zipf = Zipf(spec.pool, spec.skew, self.rng) if spec.skew else None
        self.next_slot = 0
        self.writes = 0
        self.added: List[str] = []

    def _search(self) -> tuple:
        if self.zipf is not None:
            return ("search", self.zipf.draw())
        slot = self.next_slot % len(self.inputs.pool)
        self.next_slot += 1
        return ("search", slot)

    def write(self, region: int) -> tuple:
        """The next write, landing in ``region`` (a pool index) or, when
        that holds nothing to modify, in the region of a query drawn by
        popularity."""
        rng = self.rng
        step = self.writes % 3
        self.writes += 1
        if step == 2:
            return ("delete", self.added.pop(0))
        while not self.inputs.modifiable[region]:
            region = self.zipf.draw()
        if step == 0:
            parent = rng.choice(self.inputs.regions[region])
            name = "w%d" % self.writes
            dn = "name=%s, %s" % (name, parent)
            self.added.append(dn)
            attrs = {"name": [name], "kind": [rng.choice(KINDS)],
                     "level": [str(rng.randint(0, 9))],
                     "weight": [str(rng.randint(0, 100))]}
            return ("add", dn, attrs)
        return ("modify", rng.choice(self.inputs.modifiable[region]), rng.choice(KINDS))

    def probe(self) -> List[List[tuple]]:
        """The write probe's operations, in ``PROBE_BURSTS`` bursts of
        ``PROBE_ROUNDS`` rounds (the first burst starts with the container)."""
        rng = self.rng

        def attrs(name):
            return {"name": [name], "kind": [rng.choice(KINDS)],
                    "level": [str(rng.randint(0, 9))],
                    "weight": [str(rng.randint(0, 100))]}

        bursts = []
        for burst in range(PROBE_BURSTS):
            ops = [("add", PROBE_DN, attrs("probe"))] if burst == 0 else []
            for index in range(burst * PROBE_ROUNDS, (burst + 1) * PROBE_ROUNDS):
                leaf = "name=p%d, %s" % (index, PROBE_DN)
                ops += [("add", leaf, attrs("p%d" % index)),
                        ("modify", leaf, rng.choice(KINDS)),
                        ("delete", leaf)]
            bursts.append(ops)
        return bursts

    def round(self) -> List[tuple]:
        """Ten operations.  Writes take evenly spaced slots (0 and 5 for
        two), and each add or modify lands where the search after it
        reads: the client reads back the region it just wrote."""
        writes = self.inputs.spec.write_every
        slots = {i * 10 // writes for i in range(writes)} if writes else set()
        ops = [None if i in slots else self._search() for i in range(10)]
        for i in sorted(slots):
            ops[i] = self.write(ops[i + 1][1])
        return ops


# -- the service side ------------------------------------------------------------


def call(svc: DirectoryService, op: tuple, texts: Sequence[str]):
    """Send one operation; returns (ok, answer entries or None)."""
    kind = op[0]
    if kind == "search":
        result = svc.search(texts[op[1]])
        return result.code == ResultCode.SUCCESS, result.entries
    if kind == "add":
        attrs = {name: [int(v) if name in oracle.INT_ATTRIBUTES else v
                        for v in values] for name, values in op[2].items()}
        return svc.add(op[1], ["node"], attrs) == ResultCode.SUCCESS, None
    if kind == "modify":
        code = svc.modify(op[1], replace={"kind": [op[2]]})
        return code == ResultCode.SUCCESS, None
    return svc.delete(op[1]) == ResultCode.SUCCESS, None


def apply_to_model(model: Directory, op: tuple) -> None:
    kind = op[0]
    if kind == "add":
        attrs = dict(op[2])
        attrs["objectClass"] = ["node"]
        model.put(op[1], attrs)
    elif kind == "modify":
        attrs = dict(model.entries[op[1]])
        attrs["kind"] = [op[2]]
        model.put(op[1], attrs)
    elif kind == "delete":
        model.remove(op[1])


class Setup:
    """One set-up: LDIF text to the first answered search."""

    def __init__(self, inputs: Inputs, workdir: str, index: int):
        spec = inputs.spec
        self.data_dir = (os.path.join(workdir, "data-%d" % index)
                         if spec.durable else None)
        started = time.perf_counter()
        instance = loads_ldif(inputs.ldif, bench_schema())
        loaded = time.perf_counter()
        acl = service_acl(inputs.rules) if inputs.rules is not None else None
        self.svc = DirectoryService(instance, acl=acl, durable_dir=self.data_dir)
        built = time.perf_counter()
        if spec.acl:
            if self.svc.bind(CLIENT_DN, CLIENT_SECRET) != ResultCode.SUCCESS:
                raise RuntimeError("the client could not bind")
        first = self.svc.search(render(SETUP_QUERY))
        if first.code != ResultCode.SUCCESS:
            raise RuntimeError("the first search failed: %s" % first.code)
        done = time.perf_counter()
        self.ldif_s = loaded - started
        self.construct_s = built - loaded
        self.total_s = done - started

    def close(self) -> None:
        self.svc.close()
        if self.data_dir is not None:
            shutil.rmtree(self.data_dir, ignore_errors=True)


def settle() -> None:
    """Collect, then move every live object out of the collector's view.

    The timed phase then pays only for collecting what it allocates
    itself, whatever the set-up left behind; the program's work is
    unchanged."""
    gc.collect()
    gc.freeze()


def thaw() -> None:
    gc.unfreeze()
    gc.collect()
