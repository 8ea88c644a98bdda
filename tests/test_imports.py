"""Every top-level import of the package's modules is used, every private
helper is read, no module holds an ``assert`` statement, and every config
checks itself as it is built.

A name counts as used where the module reads it (an ``ast.Name`` anywhere
in its tree) or lists it in ``__all__``; ``from __future__`` imports are
directives, not names. An ``assert`` vanishes under ``python -O`` and
fails as a bare AssertionError, so src raises a PathRecError instead.

A private helper is a module-level function, class or assignment, or a
method, whose name starts with one underscore. It must be read (an
``ast.Name`` or ``ast.Attribute`` load) somewhere in the package outside
its own body, so a helper that a simplification orphaned does not stay.

A public module-level function or class must be read by src or by the
benchmark under ``benchmarks/``, by the same name rule, outside its own
body; an attribute name the benchmark's tracer wraps
(``tracing.SPANNED``/``COUNTED``) counts as read. Code that only tests
run belongs in ``tests/oracles.py``. ``UNREAD_PUBLIC`` names the few
public names kept for callers outside the package, each with its reason.

A config is a ``*Config`` or ``*Spec`` dataclass. It checks its values in
``__post_init__`` and defines no ``validate``, so no caller needs to check
it again and no config exists unchecked.

A schema is compiled once: ``KGSchema`` in ``graph.py`` builds every table
that turns its names into ids. No other module builds a collection from a
schema's ``relations`` or ``entity_types`` (a comprehension over them, or a
``dict``, ``set``, ``list`` or ``tuple`` call of them); it reads the
schema's tables instead.

A walk meets the policy's first layer by one input rule, kept in
``policy.py``: a hop's entity block is multiplied, and its relation block
is folded (``PolicyModel.fold``). No other module calls
``relation_terms`` or stacks ``relation_vecs`` with ``self_loop_vec``
(the rows a relation block is read from), so no other module knows the
layer's block layout.

A walk has one hop loop, ``policy.walk``: rollouts and beam search are
its choosers. No other code in src calls ``fold``, ``forward`` or
``advance``, the three calls of a hop, so a change to the hop is made
once.

The state's block layout is worked out in ``policy.py`` only: no other
module multiplies a hop count (a name or attribute ``hop_budget`` or
``hops``), as ``(1 + 2 * hop_budget) * dim`` did in every caller that
sized a policy by its state width. A policy is sized by the embedding dim.

A walk is as deep as its policy's hop budget: no function in src takes a
parameter named ``hop_budget`` or ``hops``, so no caller passes a hop
count that must equal the policy's.
"""

import ast
import importlib.util
import pathlib
from collections import Counter

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "pathrec"
BENCHMARKS = PACKAGE.parents[1] / "benchmarks"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def private_definitions(tree: ast.Module):
    """Each private module-level function, class and assigned name, and each
    private method, of a module: (name, the defining node)."""
    def private(name):
        return name.startswith("_") and not name.startswith("__")

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and private(node.name):
            yield node.name, node
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            if isinstance(target, ast.Name) and private(target.id):
                yield target.id, node
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, ast.FunctionDef) and private(method.name):
                    yield method.name, method


def reads(node: ast.AST) -> list[str]:
    """The names and attributes ``node`` loads."""
    return [n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)]


def unread_privates(sources: dict[str, str]) -> list[str]:
    """``module: name`` of each private helper of ``sources`` (module name
    -> source) that no module reads outside the helper's own body."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    everywhere = Counter(name for tree in trees.values() for name in reads(tree))
    return [f"{module}: {name}" for module, tree in trees.items()
            for name, node in private_definitions(tree)
            if everywhere[name] == reads(node).count(name)]


def test_private_scanner_flags_unread_helpers():
    sources = {"a.py": "_USED = 1\n_UNUSED: int = 2\ndef _rec(n):\n    return _rec(n - 1)\n"
                       "class _Box:\n    def _kept(self): return self._gone\n"
                       "    def _gone(self): return _USED\n    def __len__(self): return 0\n",
               "b.py": "from a import _Box\nprint(_Box()._kept())\n"}
    assert unread_privates(sources) == ["a.py: _UNUSED", "a.py: _rec"]


def test_every_private_helper_is_read():
    assert unread_privates({p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}) == []


def unread_publics(sources: dict[str, str], readers: dict[str, str],
                   read_attributes=()) -> list[str]:
    """``module: name`` of each public module-level function and class of
    ``sources`` (module name -> source) that no module of ``sources`` or
    ``readers`` reads outside its own body; each name in
    ``read_attributes`` counts as read."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    everywhere = Counter(name for tree in [*trees.values(), *map(ast.parse, readers.values())]
                         for name in reads(tree))
    everywhere.update(read_attributes)
    return [f"{module}: {node.name}" for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
            and everywhere[node.name] == reads(node).count(node.name)]


def test_public_scanner_flags_unread_definitions():
    sources = {"a.py": "def used():\n    return 1\ndef unused():\n    return used()\n"
                       "def rec(n):\n    return rec(n - 1)\ndef traced():\n    pass\n"
                       "class Box:\n    def get(self): return Box\ndef _helper():\n    pass\n"}
    readers = {"bench.py": "import a\nprint(a.unused())\n"}
    assert unread_publics(sources, readers, ["traced"]) == ["a.py: rec", "a.py: Box"]
    assert unread_publics(sources, {}) == ["a.py: unused", "a.py: rec", "a.py: traced", "a.py: Box"]


# public names no src or benchmark code reads, each kept for a caller outside the package
UNREAD_PUBLIC = {
    "embeddings.py: score_triplet": "acceptance criterion 1 pins it as the paper's f(h, r, t)",
    "embeddings.py: conditional_prob": "acceptance criterion 1 pins it as the paper's P(t | h, r)",
    "inference.py: explain": "renders a stored path for the planned `pathrec explain` command",
    "coldstart.py: read_profiles": "reads the profiles `recommend --profiles` is planned to serve",
}


def traced_attributes() -> list[str]:
    """The attribute names the benchmark's tracer wraps."""
    spec = importlib.util.spec_from_file_location("benchmarks_tracing", BENCHMARKS / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [attr for _, _, attr in [*tracing.SPANNED, *tracing.COUNTED]]


def test_every_public_definition_is_read_by_src_or_the_benchmark():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    readers = {p.name: p.read_text() for p in sorted(BENCHMARKS.glob("*.py"))}
    assert sorted(unread_publics(sources, readers, traced_attributes())) == sorted(UNREAD_PUBLIC)


def assert_lines(source: str) -> list[int]:
    return [n.lineno for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Assert)]


def test_scanner_flags_unused_and_keeps_used():
    source = ("from __future__ import annotations\nimport os, sys as system\n"
              "from json import dumps, loads\n__all__ = ['loads']\nprint(os.sep)\n")
    assert unused_imports(source) == ["line 2: system", "line 3: dumps"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def test_assert_scanner_flags_nested_asserts():
    source = "assert x\ndef f(y):\n    if y:\n        assert y, 'msg'\n    return y\n"
    assert assert_lines(source) == [1, 4]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_asserts(module):
    assert assert_lines((PACKAGE / module).read_text()) == []


# dataclasses named like configs that are not: neither is read from a config file
NOT_CONFIGS = {
    "RelationSpec",  # a schema record; KGSchema checks its relations
    "RewardSpec",    # a reward bound to a graph, built by its classmethods
}
CONFIGS = {"SyntheticSpec", "SplitConfig", "EmbedTrainConfig", "AgentConfig", "InferenceConfig",
           "RunConfig"}


def config_classes(source: str) -> dict[str, set[str]]:
    """The method names of each ``*Config`` or ``*Spec`` dataclass of a
    module, but those of ``NOT_CONFIGS``."""
    def is_dataclass(decorator):
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        return getattr(target, "id", getattr(target, "attr", None)) == "dataclass"

    return {node.name: {n.name for n in node.body if isinstance(n, ast.FunctionDef)}
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ClassDef) and node.name.endswith(("Config", "Spec"))
            and node.name not in NOT_CONFIGS and any(map(is_dataclass, node.decorator_list))}


def unchecked_configs(source: str) -> list[str]:
    return [f"{name} {problem}" for name, methods in config_classes(source).items()
            for problem, bad in (("defines validate", "validate" in methods),
                                 ("lacks __post_init__", "__post_init__" not in methods))
            if bad]


def test_config_scanner_flags_validate_and_missing_post_init():
    source = ("import dataclasses\nfrom dataclasses import dataclass\n"
              "@dataclass(frozen=True)\nclass AConfig:\n    def validate(self): pass\n"
              "@dataclasses.dataclass\nclass BSpec:\n    def __post_init__(self): pass\n"
              "class CConfig:\n    pass\n"
              "@dataclass\nclass RelationSpec:\n    pass\n")
    assert config_classes(source) == {"AConfig": {"validate"}, "BSpec": {"__post_init__"}}
    assert unchecked_configs(source) == ["AConfig defines validate",
                                         "AConfig lacks __post_init__"]


def test_every_config_checks_itself_when_built():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        assert unchecked_configs(source) == [], path.name
        found.update(config_classes(source))
    assert set(found) == CONFIGS


SCHEMA_LISTS = {"relations", "entity_types"}
COLLECTIONS = {"dict", "set", "frozenset", "list", "tuple"}


def reads_schema_list(node: ast.AST) -> bool:
    """Whether ``node`` reads ``<...>schema.relations`` or
    ``<...>schema.entity_types``."""
    def is_schema(value):
        return ((isinstance(value, ast.Name) and value.id == "schema")
                or (isinstance(value, ast.Attribute) and value.attr == "schema"))

    return any(isinstance(n, ast.Attribute) and n.attr in SCHEMA_LISTS and is_schema(n.value)
               for n in ast.walk(node))


def schema_tables(source: str) -> list[int]:
    """Lines that build a collection from a schema's relation or type list:
    a comprehension iterating over one, or a collection call of one."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            if any(reads_schema_list(gen.iter) for gen in node.generators):
                lines.append(node.lineno)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in COLLECTIONS and any(map(reads_schema_list, node.args))):
            lines.append(node.lineno)
    return sorted(set(lines))


def test_schema_table_scanner_flags_rebuilt_tables():
    source = ("rel_index = {r.name: i for i, r in enumerate(schema.relations)}\n"
              "names = [r.name for r in graph.schema.relations]\n"
              "types = dict(zip(self.schema.entity_types, range(9)))\n"
              "derived = set(r for r in split.schema.relations if r.derived_from)\n"
              "kinds = list(schema.entity_types)\n"
              "for r in schema.relations:\n    print(r)\n"
              "n = len(graph.schema.relations)\n"
              "spec = schema.relations[3]\n"
              "steps = [r for r in state.relations]\n"
              "pools = {t: t for t in graph.schema.type_ids}\n")
    assert schema_tables(source) == [1, 2, 3, 4, 5]


def test_schema_table_scanner_flags_a_copy_with_one_table():
    """A module that rebuilt one name -> id table fails the lint."""
    source = (PACKAGE / "coldstart.py").read_text()
    assert schema_tables(source) == []
    copy = source + "\n\ndef relation_index(schema):\n" \
                    "    return {spec.name: i for i, spec in enumerate(schema.relations)}\n"
    assert schema_tables(copy) == [len(source.splitlines()) + 4]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")
                                          if p.name != "graph.py"))
def test_schema_tables_are_built_by_the_schema_only(module):
    assert schema_tables((PACKAGE / module).read_text()) == []


STACKERS = {"stack", "vstack", "hstack", "row_stack", "concatenate", "append"}


def relation_block_reads(source: str) -> list[int]:
    """Lines that call ``relation_terms``, or stack ``relation_vecs`` with
    ``self_loop_vec`` (a numpy stacking call reading both)."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "attr", getattr(node.func, "id", None))
        args = {read for arg in node.args for read in reads(arg)}
        if name == "relation_terms" or (name in STACKERS
                                        and {"relation_vecs", "self_loop_vec"} <= args):
            lines.append(node.lineno)
    return sorted(set(lines))


def test_relation_block_scanner_flags_terms_and_stacks():
    source = ("terms = policy.relation_terms(table)\n"
              "rows = np.vstack([table.relation_vecs, table.self_loop_vec])\n"
              "rows = np.concatenate((t.relation_vecs, t.self_loop_vec[None]))\n"
              "copy = EmbeddingTable(vecs, bias, table.relation_vecs, table.self_loop_vec)\n"
              "rows = np.vstack([table.relation_vecs, table.entity_vecs])\n"
              "n = len(table.relation_vecs) + len(table.self_loop_vec)\n")
    assert relation_block_reads(source) == [1, 2, 3]


def test_relation_block_scanner_flags_the_inline_fold_of_beam_search():
    """``inference.py`` with the line that read the beam's relation terms
    back, as it read before the policy folded every hop, fails the lint;
    so does ``mdp.py`` with the pair encoder's relation rows back."""
    for module, anchor, old in (
            ("inference.py",
             "    hop_widths, logprob = iter(widths), np.zeros(1)\n",
             "    carry, terms = None, policy.relation_terms(table)\n"),
            ("mdp.py", "        entity = self.entities[:, -1]\n",
             "        rel_rows = np.vstack([table.relation_vecs, table.self_loop_vec])\n")):
        source = (PACKAGE / module).read_text()
        assert relation_block_reads(source) == [] and source.count(anchor) == 1
        at = source[:source.index(anchor)].count("\n") + 2
        assert relation_block_reads(source.replace(anchor, anchor + old)) == [at], module


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")
                                          if p.name != "policy.py"))
def test_relation_blocks_are_read_by_the_policy_only(module):
    assert relation_block_reads((PACKAGE / module).read_text()) == []


HOP_CALLS = {"fold", "forward", "advance"}


def hop_calls(source: str, loop: str | None = None) -> list[int]:
    """Lines that call a method named in ``HOP_CALLS`` outside the body of
    the module-level function ``loop``."""
    tree = ast.parse(source)
    inside = {id(n) for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name == loop for n in ast.walk(node)}
    return sorted({node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                   and node.func.attr in HOP_CALLS and id(node) not in inside})


def test_hop_call_scanner_flags_calls_outside_the_loop():
    source = ("def walk(policy, frontier):\n"
              "    carry = policy.fold(carry, rel, table)\n"
              "    return frontier.advance(rows, *actions)\n"
              "def search(policy, frontier):\n"
              "    def step():\n"
              "        return policy.forward(X, sizes, carry)\n"
              "    return frontier.advance(rows, r, t, d), step\n"
              "class Model:\n"
              "    def forward(self, X):\n"
              "        return self._probs(X), fold, advance\n"
              "cache = model.forward(X)\n")
    assert hop_calls(source, "walk") == [6, 7, 11]
    assert hop_calls(source) == [2, 3, 6, 7, 11]


# beam search's own hop loop, as it read before it became a chooser of
# ``policy.walk``
PARENT_BEAM_LOOP = """

def beam_search_loop(user, policy, graph, table, widths, cap):
    user_scores = start_scores(graph, table, [user])
    frontier, logprob, carry = Frontier.start([user]), np.zeros(1), None
    for t, width in enumerate(widths):
        slates = frontier.slates(graph, cap, user_scores, np.zeros(len(frontier), dtype=np.intp))
        if t:
            carry = policy.fold(carry, frontier.relations[:, -1], table)
        probs, _, cache = policy.forward(frontier.encode(table), slates.sizes, carry)
        S = int(slates.sizes.max())
        valid = np.arange(S) < slates.sizes[:, None]
        p = probs[:, :S]
        # Candidates: valid slots at least as probable as the row's
        # width-th best, so ties at the cut stay in; one lexsort then
        # orders them by (row, -p, target, relation, direction). p is 0
        # beyond a slate and >= 0 inside it, so a row with fewer than
        # width valid slots gets a cut of 0 and all of them.
        if width < S:
            cut = p.max(axis=1) if width == 1 else np.partition(p, S - width, axis=1)[:, S - width]
            rows, slots = np.nonzero(valid & (p >= cut[:, None]))
        else:
            rows, slots = np.nonzero(valid)
        relation, target, direction = slates.actions(rows, slots)
        order = np.lexsort((direction, relation, target, -p[rows, slots], rows))
        ranked = rows[order]
        order = order[np.arange(len(order)) - np.searchsorted(ranked, ranked) < width]
        rows, slots = rows[order], slots[order]
        logprob = logprob[rows] + np.log(p[rows, slots])
        carry = cache.sum1[rows], cache.end
        frontier = frontier.advance(rows, relation[order], target[order], direction[order])
    return Beam(frontier, logprob)
"""


def test_hop_call_scanner_flags_the_beam_loop_pasted_back():
    """``inference.py`` with beam search's own hop loop back, as it read
    before it became a chooser of ``policy.walk``, fails the lint at its
    fold, its forward and its advance."""
    source = (PACKAGE / "inference.py").read_text()
    assert hop_calls(source) == []
    pasted = source + PARENT_BEAM_LOOP
    lines = pasted.splitlines()
    want = [i + 1 for i, line in enumerate(lines) if i >= len(source.splitlines())
            and any(f".{call}(" in line for call in HOP_CALLS)]
    assert len(want) == 3 and hop_calls(pasted) == want


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_hops_are_taken_by_policy_walk_only(module):
    loop = "walk" if module == "policy.py" else None
    assert hop_calls((PACKAGE / module).read_text(), loop) == []


def test_policy_walk_takes_every_hop_call():
    """``walk`` itself calls each of ``HOP_CALLS``: the scanner reads the
    loop that holds them."""
    source = (PACKAGE / "policy.py").read_text()
    assert len(hop_calls(source)) == len(HOP_CALLS) and hop_calls(source, "walk") == []


HOP_COUNTS = {"hop_budget", "hops"}


def state_layout_lines(source: str) -> list[int]:
    """Lines that multiply a hop count: a product with an operand that
    reads a name or attribute in ``HOP_COUNTS``."""
    return sorted({node.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
                   and HOP_COUNTS & {*reads(node.left), *reads(node.right)}})


def test_state_layout_scanner_flags_products_of_hop_counts():
    source = ("width = (1 + 2 * config.hop_budget) * table.dim\n"
              "rows = (2 * hops - 1) * d\n"
              "n = cfg.hop_budget * dim\n"
              "last = frontier.hops - 1\n"
              "steps = np.arange(1, frontier.hops + 1)\n"
              "cols = 2 * len(widths)\n"
              "ok = hop_budget != len(widths)\n")
    assert state_layout_lines(source) == [1, 2, 3]


def test_state_layout_scanner_flags_a_copy_of_the_state_width():
    """A module that sized a policy by its state width, as callers did
    before the policy took the embedding dim, fails the lint; the policy's
    own layout is what the scanner reads."""
    assert state_layout_lines((PACKAGE / "policy.py").read_text())
    source = (PACKAGE / "pipeline.py").read_text()
    assert state_layout_lines(source) == []
    copy = source + "\n\ndef state_dim_for(table, hop_budget):\n" \
                    "    return (1 + 2 * hop_budget) * table.dim\n"
    assert state_layout_lines(copy) == [len(source.splitlines()) + 4]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")
                                          if p.name != "policy.py"))
def test_state_layout_is_worked_out_by_the_policy_only(module):
    assert state_layout_lines((PACKAGE / module).read_text()) == []


def hop_count_params(source: str) -> list[int]:
    """Lines of a ``def`` with a parameter named in ``HOP_COUNTS``."""
    return sorted({node.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.FunctionDef)
                   and HOP_COUNTS & {arg.arg for arg in (*node.args.posonlyargs, *node.args.args,
                                                         *node.args.kwonlyargs)}})


# ``policy.walk``'s signature when its callers passed the hop count
PARENT_WALK = """

def walk(policy: PolicyModel, graph: KnowledgeGraph, table: EmbeddingTable,
         starts: Sequence[int], hops: int, max_actions: int, choose: Callable,
         user_scores: np.ndarray | None = None) -> Frontier:
    return frontier
"""


def test_hop_count_param_scanner_flags_the_parent_walk():
    source = (PACKAGE / "policy.py").read_text()
    assert hop_count_params(source) == []
    assert hop_count_params(source + PARENT_WALK) == [len(source.splitlines()) + 3]
    assert hop_count_params("class A:\n    def f(self, *, hop_budget=3):\n        pass\n"
                            "def g(frontier):\n    return frontier.hops\n") == [2]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_function_takes_a_hop_count(module):
    assert hop_count_params((PACKAGE / module).read_text()) == []
