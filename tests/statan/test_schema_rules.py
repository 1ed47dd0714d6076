"""SCH001/SCH002: schema-aware query and field checking."""

import pytest

from repro.statan.engine import analyze_tree


def rules_fired(root, rule):
    findings, _ = analyze_tree([root])
    return [f for f in findings if f.rule == rule]


SCHEMA_MODULE = (
    "from repro.frames.schema import Field, RecordSchema\n"
    "\n"
    'RUN_SCHEMA = RecordSchema("run", (\n'
    '    Field("run_id", "str"),\n'
    '    Field("elapsed", "float"),\n'
    '    Field("n", "int"),\n'
    "))\n"
    "\n"
    'BY_COLLECTION = {"runs": RUN_SCHEMA}\n'
)


def tree_with(query_module: str) -> dict[str, str]:
    return {"frames/schema.py": SCHEMA_MODULE, "frames/use.py": query_module}


#: Mongo's comparison, membership and existence operators, each with an
#: operand of the right kind for the float field ``elapsed``.
WELL_TYPED_OPERANDS = {
    "$eq": "1.5",
    "$ne": "1.5",
    "$gt": "1.5",
    "$gte": "1.5",
    "$lt": "1.5",
    "$lte": "1.5",
    "$in": "[1.5, 2.0]",
    "$exists": "True",
}


class TestSch001:
    def test_unknown_query_field(self, write_tree):
        root = write_tree(tree_with(
            "def q(store):\n"
            '    return store["runs"].find({"nope": 1})\n'
        ))
        findings = rules_fired(root, "SCH001")
        assert len(findings) == 1
        assert "'nope'" in findings[0].message
        assert "schema 'run'" in findings[0].message

    def test_unknown_operator(self, write_tree):
        root = write_tree(tree_with(
            "def q(store):\n"
            '    return store["runs"].count({"elapsed": {"$regex": "x"}})\n'
        ))
        findings = rules_fired(root, "SCH001")
        assert len(findings) == 1
        assert "$regex" in findings[0].message

    @pytest.mark.parametrize("op", sorted(WELL_TYPED_OPERANDS))
    def test_every_operator_is_flagged(self, write_tree, op):
        # Well-typed operands of Mongo's operators: the store answers
        # none of them, so each is a finding on its own.
        operand = WELL_TYPED_OPERANDS[op]
        root = write_tree(tree_with(
            "def q(store):\n"
            f'    return store["runs"].find({{"elapsed": {{"{op}": {operand}}}}})\n'
        ))
        findings = rules_fired(root, "SCH001")
        assert len(findings) == 1
        assert repr(op) in findings[0].message
        assert "equality" in findings[0].message

    def test_bare_equality_dtype_mismatch(self, write_tree):
        root = write_tree(tree_with(
            "def q(store):\n"
            '    return store["runs"].find({"run_id": 7})\n'
        ))
        assert len(rules_fired(root, "SCH001")) == 1

    def test_distinct_on_undeclared_field(self, write_tree):
        root = write_tree(tree_with(
            "def q(store):\n"
            '    return store["runs"].distinct("nope")\n'
        ))
        findings = rules_fired(root, "SCH001")
        assert len(findings) == 1
        assert "distinct" in findings[0].message

    def test_declared_fields_and_equalities_are_silent(self, write_tree):
        root = write_tree(tree_with(
            "def q(store):\n"
            '    runs = store["runs"].find({"elapsed": 1.5})\n'
            '    total = store["runs"].count({"run_id": "a", "n": 1})\n'
            '    names = store["runs"].distinct("run_id")\n'
            "    return runs, total, names\n"
        ))
        assert rules_fired(root, "SCH001") == []

    def test_str_find_is_not_a_store_query(self, write_tree):
        root = write_tree(tree_with(
            "def q(text):\n"
            '    return "runs".find({"nope": 1}), text.find("x")\n'
        ))
        assert rules_fired(root, "SCH001") == []

    def test_direct_evaluator_call_with_unknown_operator(self, write_tree):
        root = write_tree(tree_with(
            "from repro.frames.query import matching_positions\n"
            "\n"
            "def q(frame):\n"
            '    return matching_positions(frame, {"n": {"$regex": "x"}})\n'
        ))
        findings = rules_fired(root, "SCH001")
        assert len(findings) == 1
        assert "$regex" in findings[0].message

    def test_direct_evaluator_call_with_equality_is_silent(self, write_tree):
        root = write_tree(tree_with(
            "from repro.frames.query import matching_positions\n"
            "\n"
            "def q(frame):\n"
            '    return matching_positions(frame, {"n": 1, "run_id": "a"})\n'
        ))
        assert rules_fired(root, "SCH001") == []

    def test_direct_evaluator_call_flags_every_operator(self, write_tree):
        root = write_tree(tree_with(
            "from repro.frames.query import matching_positions\n"
            "\n"
            "def q(frame):\n"
            '    return matching_positions(frame, {"n": {"$gte": 1, "$ne": 4}})\n'
        ))
        findings = rules_fired(root, "SCH001")
        assert [f.message.split("'")[1] for f in findings] == ["$gte", "$ne"]

    def test_unknown_collection_is_ignored(self, write_tree):
        root = write_tree(tree_with(
            "def q(store):\n"
            '    return store["mystery"].find({"anything": 1})\n'
        ))
        assert rules_fired(root, "SCH001") == []


class TestSch002:
    def test_insert_with_undeclared_field(self, write_tree):
        root = write_tree(tree_with(
            "def ingest(store):\n"
            '    store["runs"].insert({"run_id": "a", "elapsed": 1.0, "extra": 2})\n'
        ))
        findings = rules_fired(root, "SCH002")
        assert len(findings) == 1
        assert "'extra'" in findings[0].message

    def test_insert_many_listcomp_checks_the_element(self, write_tree):
        root = write_tree(tree_with(
            "def ingest(store, items):\n"
            '    store["runs"].insert_many(\n'
            '        [{"run_id": r, "bogus": 1} for r in items]\n'
            "    )\n"
        ))
        findings = rules_fired(root, "SCH002")
        assert len(findings) == 1
        assert "'bogus'" in findings[0].message

    def test_row_read_on_undeclared_field(self, write_tree):
        root = write_tree(tree_with(
            "def scan(store):\n"
            '    rows = store["runs"].find({"n": 1})\n'
            "    out = []\n"
            "    for row in rows:\n"
            '        out.append(row["undeclared"])\n'
            "    return out\n"
        ))
        findings = rules_fired(root, "SCH002")
        assert len(findings) == 1
        assert "'undeclared'" in findings[0].message

    def test_find_one_row_read(self, write_tree):
        root = write_tree(tree_with(
            "def scan(store):\n"
            '    row = store["runs"].find_one({"run_id": "a"})\n'
            '    return row["missing"]\n'
        ))
        assert len(rules_fired(root, "SCH002")) == 1

    def test_declared_writes_and_reads_are_silent(self, write_tree):
        root = write_tree(tree_with(
            "def roundtrip(store):\n"
            '    store["runs"].insert({"run_id": "a", "elapsed": 1.0, "n": 1})\n'
            '    for row in store["runs"].find():\n'
            '        yield row["run_id"], row["elapsed"]\n'
        ))
        assert rules_fired(root, "SCH002") == []

    def test_rebinding_the_row_variable_clears_tracking(self, write_tree):
        root = write_tree(tree_with(
            "def scan(store, other):\n"
            '    row = store["runs"].find_one({"run_id": "a"})\n'
            "    row = other\n"
            '    return row["anything"]\n'
        ))
        assert rules_fired(root, "SCH002") == []
