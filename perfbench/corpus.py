"""Seeded generator of the synthetic module corpus the ``analyze``
workload lints.

The corpus is shaped like a package of the program under test (a
``repro/`` tree of service, observability and model modules), but it is
written from the templates below and never from the program's own
sources, so editing the program cannot change it.  Modules hold the
idioms the crash-consistency and determinism rules inspect:
tmp->fsync->replace publication, ``O_APPEND`` and ``O_EXCL`` writes,
chaos hooks under narrow and broad handlers, descriptors and threads
released on every branch, seeded RNGs and sorted directory listings.

Some modules carry planted violations of stable rules, one finding
each; every planted block has a clean twin with the same name, so an
edit can fix a violation without moving anything else.  Each module
records the ``(rule, scope)`` findings the analyzers must report, and
the corpus records its chaos catalogue (crash points, write sites and
call-site registry) plus a matching ``docs/CHAOS.md`` table.

Sizes follow a fixed log-normal profile (median about 150 lines) plus a
few modules over 1k lines; the seed permutes sizes and picks names,
constants and block order, never the amount of code.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass, field

#: Sub-packages of the synthetic tree; CC001/CC002 apply to
#: ``repro/service/`` only, so violations of those land there.
PACKAGES = ("service", "service", "obs", "perf", "model", "runtime",
            "analysis")

_NOUNS = ("lease", "ring", "batch", "shard", "ticks", "pages", "quota",
          "ledger", "window", "slots", "nodes", "cells", "grant", "epoch",
          "store", "block", "frame", "queue_depth", "buffer", "route",
          "vector", "stage", "mesh", "probe")
_VERBS = ("load", "scan", "merge", "plan", "apply", "collect", "resolve",
          "step", "drain", "settle", "gather", "split", "weigh", "rank",
          "sample", "align", "trim", "pack", "seal", "count")
_CLASSES = ("Ledger", "Planner", "Ring", "Shard", "Allocator", "Window",
            "Stager", "Router", "Gauge", "Binder")

#: Planted violation kinds and the rule each must raise.  CC001/CC002
#: only fire in durability-critical code, so they are planted in
#: ``repro/service/`` modules only.
VIOLATIONS = {
    "cc001": "CC001", "cc002": "CC002", "cc007": "CC007",
    "cc008_fd": "CC008", "cc008_thread": "CC008",
    "det001": "DET001", "det002": "DET002", "det003": "DET003",
    "det004": "DET004", "det005": "DET005", "det009": "DET009",
    "det010": "DET010",
}
_SERVICE_ONLY = ("cc001", "cc002")
#: Kinds an edit may add (no new chaos hook, so the catalogue holds).
_EDIT_KINDS = ("det001", "det003", "det004", "det009", "cc008_fd",
               "det010")

#: Planted violations per module, cycled over the modules: 40 % of
#: modules are clean.
_VIOLATION_COUNTS = (0, 1, 0, 2, 1, 0, 3, 1, 0, 2)


@dataclass
class Block:
    """One function (or method) of a module."""

    name: str
    kind: str            # template id; a violation kind when planted
    params: dict
    cls: str = ""        # enclosing class, "" for module level
    site: str = ""       # chaos crash point the block hooks, if any
    write_site: bool = False

    @property
    def scope(self) -> str:
        return f"{self.cls}.{self.name}" if self.cls else self.name

    def expected(self) -> "list[tuple[str, str]]":
        rule = VIOLATIONS.get(self.kind)
        if rule is None:
            return []
        # DET005 reports the scope enclosing the def.
        scope = (self.cls or "<module>") if self.kind == "det005" \
            else self.scope
        return [(rule, scope)]


@dataclass
class Module:
    """One synthetic module: path, blocks, and its rendered text."""

    package: str
    stem: str
    doc: str
    blocks: "list[Block]" = field(default_factory=list)

    @property
    def relpath(self) -> str:
        return f"repro/{self.package}/{self.stem}.py"

    def expected(self) -> "list[tuple[str, str]]":
        return sorted(f for b in self.blocks for f in b.expected())

    def text(self) -> str:
        lines = [f'"""{self.doc}"""', "", "from __future__ import annotations",
                 "", "import hashlib", "import json", "import os",
                 "import random", "import tempfile", "import threading",
                 "import time", "",
                 "from repro.chaos.hooks import get_chaos",
                 "from repro.errors import CrashInjected", "", ""]
        current_cls = None
        for block in self.blocks:
            if block.cls != current_cls:
                if block.cls:
                    lines += [f"class {block.cls}:",
                              f'    """State owner for {self.stem}."""', "",
                              "    def __init__(self, root, durable=True):",
                              "        self.root = root",
                              "        self.durable = durable",
                              "        self.count = 0", ""]
                current_cls = block.cls
            indent = "    " if block.cls else ""
            body = _render(block)
            lines += [indent + ln if ln else "" for ln in body]
            lines.append("")
            if not block.cls:
                lines.append("")
        return "\n".join(lines).rstrip() + "\n"


# -- block templates ---------------------------------------------------
#
# Each renderer returns the lines of one def at column 0; methods get
# ``self`` as their first parameter.  Planted kinds produce exactly one
# finding of their rule; every other kind produces none.


def _sig(block: Block, params: str) -> str:
    first = "self, " if block.cls else ""
    return f"def {block.name}({first}{params}):"


def _r_compute(b: Block) -> "list[str]":
    p = b.params
    return [
        _sig(b, f"values, scale={p['c1']}"),
        f'    """Weighted total and best of {p["noun"]} values."""',
        "    total = 0.0",
        "    best = None",
        "    for i, v in enumerate(values):",
        "        if v is None:",
        "            continue",
        f"        w = v * scale + {p['c2']}",
        "        if best is None or w > best:",
        "            best = w",
        f"        elif w < -{p['c3']}:",
        "            break",
        "        total += w / (i + 1)",
        "    return total, best",
    ]


def _r_while(b: Block) -> "list[str]":
    p = b.params
    return [
        _sig(b, "budget, step"),
        f'    """Spend ``budget`` in {p["noun"]} steps."""',
        "    rounds = 0",
        "    left = budget",
        "    while left > 0:",
        f"        if rounds > {p['c1'] * 10}:",
        "            break",
        "        take = min(left, step)",
        f"        if take % {p['c3'] + 1} == 0:",
        "            take += 1",
        "        left -= take",
        "        rounds += 1",
        "    else:",
        "        rounds = -rounds",
        "    return rounds",
    ]


def _r_lookup(b: Block) -> "list[str]":
    p = b.params
    return [
        _sig(b, "table, keys"),
        f'    """Resolve ``keys`` against the {p["noun"]} table."""',
        "    found = []",
        "    missing = 0",
        "    for key in sorted(keys):",
        "        try:",
        "            value = table[key]",
        "        except KeyError:",
        "            missing += 1",
        "            continue",
        "        else:",
        f"            found.append((key, value * {p['c1']}))",
        "        finally:",
        "            missing += 0",
        "    return found, missing",
    ]


def _r_comprehension(b: Block) -> "list[str]":
    p = b.params
    return [
        _sig(b, "rows, limit"),
        f'    """Bucket {p["noun"]} rows by width."""',
        f"    widths = [len(str(r)) % {p['c3'] + 2} for r in rows]",
        "    buckets = {w: [r for r, x in zip(rows, widths) if x == w]",
        "               for w in sorted(set(widths))}",
        "    small = sum(1 for w in widths if w < limit)",
        "    if small > len(rows) // 2:",
        "        return {k: len(v) for k, v in sorted(buckets.items())}",
        "    return {}",
    ]


def _r_with(b: Block) -> "list[str]":
    p = b.params
    return [
        _sig(b, "path"),
        f'    """Count non-blank lines of a {p["noun"]} file."""',
        "    count = 0",
        "    with open(path, encoding=\"utf-8\") as fh:",
        "        for line in fh:",
        "            if not line.strip():",
        "                continue",
        f"            if line.startswith(\"#{p['noun']}\"):",
        "                count += 2",
        "            else:",
        "                count += 1",
        "    return count",
    ]


def _r_seeded(b: Block) -> "list[str]":
    p = b.params
    return [
        _sig(b, "directory, seed"),
        f'    """Seeded {p["noun"]} shuffle over a sorted listing."""',
        "    rng = random.Random(seed)",
        "    names = sorted(os.listdir(directory))",
        "    rng.shuffle(names)",
        f"    picked = names[:{p['c1']}]",
        "    blob = json.dumps(picked, sort_keys=True).encode()",
        "    return hashlib.sha256(blob).hexdigest()",
    ]


def _r_tmp_publish(b: Block) -> "list[str]":
    call = (["        if cz is None:",
             "            os.write(fd, data)",
             "        else:",
             f'            cz.write(fd, data, "{b.site}")'] if b.site
            else ["        os.write(fd, data)"])
    head = ["    cz = get_chaos()"] if b.site else []
    return [
        _sig(b, "directory, target, data, durable=True"),
        f'    """Publish one {b.params["noun"]} entry atomically."""',
        *head,
        '    fd, tmp = tempfile.mkstemp(dir=str(directory), suffix=".tmp")',
        "    try:",
        *call,
        "        if durable:",
        "            os.fsync(fd)",
        "    finally:",
        "        os.close(fd)",
        "    os.replace(tmp, target)",
    ]


def _r_append(b: Block) -> "list[str]":
    return [
        _sig(b, "path, record"),
        f'    """Append one {b.params["noun"]} record (single write)."""',
        '    data = (record + "\\n").encode("utf-8")',
        "    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)",
        "    try:",
        "        os.write(fd, data)",
        "        os.fsync(fd)",
        "    finally:",
        "        os.close(fd)",
        "    return len(data)",
    ]


def _r_excl(b: Block) -> "list[str]":
    return [
        _sig(b, "path, payload"),
        f'    """Claim a {b.params["noun"]} slot exactly once."""',
        "    try:",
        "        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)",
        "    except FileExistsError:",
        "        return False",
        "    try:",
        "        os.write(fd, payload.encode())",
        "    finally:",
        "        os.close(fd)",
        "    return True",
    ]


def _r_hook(b: Block) -> "list[str]":
    return [
        _sig(b, "text"),
        f'    """Parse a {b.params["noun"]} count behind a crash point."""',
        "    cz = get_chaos()",
        "    if cz is not None:",
        f'        cz.on("{b.site}")',
        "    try:",
        "        value = int(text)",
        "    except ValueError:",
        "        value = 0",
        "    return value",
    ]


def _r_fd_branch(b: Block) -> "list[str]":
    return [
        _sig(b, "path, size"),
        f'    """Read a {b.params["noun"]} header when asked to."""',
        "    fd = os.open(path, os.O_RDONLY)",
        "    try:",
        "        if size > 0:",
        "            data = os.read(fd, size)",
        "        else:",
        '            data = b""',
        "    finally:",
        "        os.close(fd)",
        "    return data",
    ]


def _r_thread(b: Block) -> "list[str]":
    return [
        _sig(b, "work"),
        f'    """Run a {b.params["noun"]} beater for one round."""',
        "    stop = threading.Event()",
        "    beat = threading.Thread(target=work, args=(stop,), daemon=True)",
        "    beat.start()",
        "    try:",
        "        stop.wait(0)",
        "    finally:",
        "        stop.set()",
        "        beat.join()",
    ]


# -- planted violations and their clean twins --------------------------


def _r_cc001(b: Block, fixed: bool = False) -> "list[str]":
    mode = "O_APPEND" if fixed else "O_TRUNC"
    return [
        _sig(b, "path, data"),
        f'    """Write the {b.params["noun"]} file."""',
        f"    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.{mode}, 0o644)",
        "    try:",
        "        os.write(fd, data)",
        "    finally:",
        "        os.close(fd)",
    ]


def _r_cc002(b: Block, fixed: bool = False) -> "list[str]":
    sync = ["        os.fsync(fd)"] if fixed else []
    return [
        _sig(b, "directory, target, data"),
        f'    """Publish a {b.params["noun"]} snapshot via a temp file."""',
        '    fd, tmp = tempfile.mkstemp(dir=str(directory), suffix=".tmp")',
        "    try:",
        "        os.write(fd, data)",
        *sync,
        "    finally:",
        "        os.close(fd)",
        "    os.replace(tmp, target)",
    ]


def _r_cc007(b: Block, fixed: bool = False) -> "list[str]":
    handler = (["    except CrashInjected:", "        raise",
                "    except Exception:", "        raise"] if fixed
               else ["    except Exception:", "        return 0"])
    return [
        _sig(b, "items"),
        f'    """Size of the {b.params["noun"]} set behind a crash point."""',
        "    cz = get_chaos()",
        "    try:",
        "        if cz is not None:",
        f'            cz.on("{b.site}")',
        "        return len(items)",
        *handler,
    ]


def _r_cc008_fd(b: Block, fixed: bool = False) -> "list[str]":
    body = (["    try:", "        data = os.read(fd, size)",
             "    finally:", "        os.close(fd)"] if fixed
            else ["    data = os.read(fd, size)", "    os.close(fd)"])
    return [
        _sig(b, "path, size"),
        f'    """Read the {b.params["noun"]} prefix."""',
        "    fd = os.open(path, os.O_RDONLY)",
        *body,
        "    return data",
    ]


def _r_cc008_thread(b: Block, fixed: bool = False) -> "list[str]":
    tail = (["    try:", "        t.start()", "    finally:",
             "        t.join()"] if fixed else ["    t.start()"])
    return [
        _sig(b, "work"),
        f'    """Start the {b.params["noun"]} worker."""',
        "    t = threading.Thread(target=work, daemon=True)",
        *tail,
        "    return t",
    ]


def _r_det001(b: Block, fixed: bool = False) -> "list[str]":
    clock = "now" if fixed else "time.time()"
    params = "deadline, now" if fixed else "deadline"
    return [
        _sig(b, params),
        f'    """Seconds left on the {b.params["noun"]} deadline."""',
        f"    left = deadline - {clock}",
        "    return max(0.0, left)",
    ]


def _r_det002(b: Block, fixed: bool = False) -> "list[str]":
    draw = "rng.random()" if fixed else "random.random()"
    return [
        _sig(b, "base, rng"),
        f'    """Jittered {b.params["noun"]} backoff."""',
        f"    jitter = {draw}",
        f"    return base * (1.0 + jitter / {b.params['c1']})",
    ]


def _r_det003(b: Block, fixed: bool = False) -> "list[str]":
    listing = "sorted(os.listdir(directory))" if fixed \
        else "os.listdir(directory)"
    return [
        _sig(b, "directory"),
        f'    """Names of the {b.params["noun"]} files."""',
        "    out = []",
        f"    for name in {listing}:",
        '        if name.endswith(".tmp"):',
        "            continue",
        "        out.append(name)",
        "    return out",
    ]


def _r_det004(b: Block, fixed: bool = False) -> "list[str]":
    source = "sorted(set(keys))" if fixed else "set(keys)"
    return [
        _sig(b, "keys"),
        f'    """Distinct {b.params["noun"]} keys, joined."""',
        "    parts = []",
        f"    for key in {source}:",
        "        parts.append(str(key))",
        '    return ",".join(parts)',
    ]


def _r_det005(b: Block, fixed: bool = False) -> "list[str]":
    default = "None" if fixed else "[]"
    init = ["    if acc is None:", "        acc = []"] if fixed else []
    return [
        _sig(b, f"item, acc={default}"),
        f'    """Collect one {b.params["noun"]} item."""',
        *init,
        "    acc.append(item)",
        "    return acc",
    ]


def _r_det009(b: Block, fixed: bool = False) -> "list[str]":
    key = ("int(hashlib.sha256(str(key).encode()).hexdigest(), 16)"
           if fixed else "hash(key)")
    return [
        _sig(b, "key, n"),
        f'    """Bucket of a {b.params["noun"]} key."""',
        f"    return {key} % n",
    ]


def _r_det010(b: Block, fixed: bool = False) -> "list[str]":
    dump = "json.dumps(payload, sort_keys=True)" if fixed \
        else "json.dumps(payload)"
    return [
        _sig(b, "payload"),
        f'    """Content address of a {b.params["noun"]} payload."""',
        f"    blob = {dump}.encode()",
        "    return hashlib.sha256(blob).hexdigest()",
    ]


_CLEAN = {
    "compute": _r_compute, "while": _r_while, "lookup": _r_lookup,
    "comprehension": _r_comprehension, "with": _r_with,
    "seeded": _r_seeded, "tmp_publish": _r_tmp_publish,
    "append": _r_append, "excl": _r_excl, "hook": _r_hook,
    "fd_branch": _r_fd_branch, "thread": _r_thread,
}
_TWINNED = {
    "cc001": _r_cc001, "cc002": _r_cc002, "cc007": _r_cc007,
    "cc008_fd": _r_cc008_fd, "cc008_thread": _r_cc008_thread,
    "det001": _r_det001, "det002": _r_det002, "det003": _r_det003,
    "det004": _r_det004, "det005": _r_det005, "det009": _r_det009,
    "det010": _r_det010,
}


def _render(block: Block) -> "list[str]":
    kind = block.kind
    if kind in _TWINNED:
        return _TWINNED[kind](block)
    if kind.endswith("_fixed"):
        return _TWINNED[kind[:-len("_fixed")]](block, fixed=True)
    return _CLEAN[kind](block)


#: Clean filler kinds and their draw weights.
_FILLER = (("compute", 4), ("while", 3), ("lookup", 3),
           ("comprehension", 2), ("with", 2), ("seeded", 1),
           ("tmp_publish", 1), ("append", 1), ("excl", 1), ("hook", 1),
           ("fd_branch", 1), ("thread", 1))


def _block_lines(block: Block) -> int:
    return len(_render(block)) + (1 if block.cls else 2)


def _letters(n: int) -> str:
    """0 -> 'a', 25 -> 'z', 26 -> 'ba' ... (crash points take no
    digits)."""
    out = ""
    while True:
        out = chr(ord("a") + n % 26) + out
        n //= 26
        if n == 0:
            return out


def module_sizes(n_modules: int) -> "list[int]":
    """Target line counts: a log-normal profile with median 150 plus
    one module over 1k lines per 32."""
    n_big = max(1, n_modules // 32) if n_modules >= 8 else 0
    n_small = n_modules - n_big
    dist = statistics.NormalDist(0.0, 0.55)
    small = [round(150 * 2.718281828459045 ** dist.inv_cdf(
        (k + 0.5) / n_small)) for k in range(n_small)]
    big = [1050 + 150 * k for k in range(n_big)]
    return small + big


@dataclass
class Corpus:
    """The generated corpus plus everything its checks need."""

    modules: "list[Module]"
    #: Module index -> its pass-2 version, for the edited modules.
    edits: "dict[int, Module]"

    def catalogue(self) -> dict:
        """Crash points, write sites and site -> ``path::scope``
        registry, as plain data (identical for both passes)."""
        points, writes, registry = [], [], {}
        for mod in self.modules:
            for block in mod.blocks:
                if block.site:
                    points.append(block.site)
                    registry[block.site] = [f"{mod.relpath}::{block.scope}"]
                    if block.write_site:
                        writes.append(block.site)
        return {"points": sorted(points), "write_sites": sorted(writes),
                "registry": registry}

    def docs(self) -> str:
        """A ``docs/CHAOS.md`` catalogue table matching the corpus."""
        cat = self.catalogue()
        lines = ["# Corpus crash points", "", "| Point | Window |",
                 "|---|---|"]
        for site in cat["points"]:
            mark = " (write site)" if site in cat["write_sites"] else ""
            lines.append(f"| `{site}` | synthetic window{mark} |")
        return "\n".join(lines) + "\n"


def _new_block(rng: random.Random, kind: str, name: str, cls: str,
               site_for) -> Block:
    block = Block(name=name, kind=kind, cls=cls, params={
        "noun": rng.choice(_NOUNS), "c1": rng.randrange(2, 50),
        "c2": rng.randrange(1, 100), "c3": rng.randrange(1, 20)})
    if kind in ("hook", "cc007") or (kind == "tmp_publish"
                                     and rng.random() < 0.5):
        block.site = site_for()
        block.write_site = kind == "tmp_publish"
    return block


def _build_module(rng: random.Random, package: str, stem: str,
                  target: int, n_violations: int,
                  vio_cycle) -> Module:
    mod = Module(package=package, stem=stem,
                 doc=f"Synthetic {package} module {stem}.")
    names: set[str] = set()
    hooks = iter(range(10_000))

    def fresh_name() -> str:
        name = f"{rng.choice(_VERBS)}_{rng.choice(_NOUNS)}"
        if name in names:
            name = f"{name}_{_letters(len(names))}"
        names.add(name)
        return name

    def site_for() -> str:
        return f"{package}.{stem}_{_letters(next(hooks))}"

    kinds, weights = zip(*_FILLER)
    planted = [next(vio_cycle) for _ in range(n_violations)]
    lines = 16
    cls = ""
    pending = list(planted)
    while lines < target or pending:
        if cls == "" and rng.random() < 0.15:
            cls = f"{rng.choice(_CLASSES)}{_letters(len(mod.blocks))}".title()
            lines += 8
        elif cls and rng.random() < 0.2:
            cls = ""
        # Spread planted blocks evenly through the module.
        done = len(planted) - len(pending)
        if pending and lines >= target * (done + 1) / (len(planted) + 1):
            kind = pending.pop(0)
            # DET005 in a class reports the class scope; keep it simple.
            block = _new_block(rng, kind, fresh_name(),
                               "" if kind == "det005" else cls, site_for)
            if kind == "det005":
                cls = ""
        else:
            kind = rng.choices(kinds, weights)[0]
            block = _new_block(rng, kind, fresh_name(), cls, site_for)
        mod.blocks.append(block)
        lines += _block_lines(block)
    return mod


def _edit(rng: random.Random, mod: Module, n: int) -> Module:
    """The pass-2 version of ``mod``: fix a planted violation, plant
    a new one, or touch a constant (rotating by ``n``)."""
    blocks = [Block(b.name, b.kind, dict(b.params), b.cls, b.site,
                    b.write_site) for b in mod.blocks]
    planted = [b for b in blocks if b.kind in VIOLATIONS]
    action = n % 3
    if action == 0 and planted:
        victim = planted[rng.randrange(len(planted))]
        victim.kind = f"{victim.kind}_fixed"
    elif action == 1:
        kind = _EDIT_KINDS[n % len(_EDIT_KINDS)]
        names = {b.name for b in blocks}
        name = f"{rng.choice(_VERBS)}_{rng.choice(_NOUNS)}_edit"
        while name in names:
            name += "_x"
        at = rng.randrange(len(blocks) + 1)
        # Insert at module level between top-level blocks.
        while at < len(blocks) and blocks[at].cls:
            at += 1
        block = Block(name=name, kind=kind, cls="", params={
            "noun": rng.choice(_NOUNS), "c1": rng.randrange(2, 50),
            "c2": rng.randrange(1, 100), "c3": rng.randrange(1, 20)})
        blocks.insert(at, block)
    else:
        plain = [b for b in blocks if b.kind not in VIOLATIONS]
        target = plain[rng.randrange(len(plain))] if plain else blocks[0]
        target.params["c1"] += 1
        target.params["c2"] += 3
    return Module(mod.package, mod.stem, mod.doc, blocks)


def generate(seed: int, n_modules: int) -> Corpus:
    """The corpus for ``seed``: ``n_modules`` modules and the pass-2
    edits of about 10 % of them."""
    rng = random.Random(f"corpus/{seed}")
    sizes = module_sizes(n_modules)
    rng.shuffle(sizes)
    counts = [_VIOLATION_COUNTS[i % len(_VIOLATION_COUNTS)]
              for i in range(n_modules)]
    rng.shuffle(counts)
    stems: set[str] = set()
    service_kinds = list(VIOLATIONS)
    other_kinds = [k for k in VIOLATIONS if k not in _SERVICE_ONLY]

    def cycle(kinds):
        while True:
            order = list(kinds)
            rng.shuffle(order)
            yield from order

    vio = {"service": cycle(service_kinds), "other": cycle(other_kinds)}
    modules = []
    for i in range(n_modules):
        package = PACKAGES[i % len(PACKAGES)]
        while True:
            stem = f"{rng.choice(_NOUNS)}_{rng.choice(_NOUNS)}"
            if stem not in stems:
                stems.add(stem)
                break
        modules.append(_build_module(
            rng, package, stem, sizes[i], counts[i],
            vio["service" if package == "service" else "other"]))
    n_edit = max(1, round(n_modules / 10))
    edited = sorted(rng.sample(range(n_modules), n_edit))
    edits = {i: _edit(rng, modules[i], k) for k, i in enumerate(edited)}
    return Corpus(modules=modules, edits=edits)
