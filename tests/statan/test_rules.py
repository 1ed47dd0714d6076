"""Per-rule fixture snippets: positives fire, negatives stay silent."""

from repro.statan import analyze_source


def rules_hit(source: str, path: str = "repro/simulation/snippet.py") -> list[str]:
    return sorted({f.rule for f in analyze_source(source, path=path)})


class TestDET001UnseededRandomness:
    def test_stdlib_random_module_call(self):
        src = "import random\n\ndef f():\n    return random.random()\n"
        assert "DET001" in rules_hit(src)

    def test_stdlib_from_import(self):
        src = "from random import shuffle\n\ndef f(xs):\n    shuffle(xs)\n"
        assert "DET001" in rules_hit(src)

    def test_numpy_module_level_draw(self):
        src = "import numpy as np\n\ndef f():\n    return np.random.random()\n"
        assert "DET001" in rules_hit(src)

    def test_numpy_seed_call(self):
        src = "import numpy as np\n\nnp.random.seed(0)\n"
        assert "DET001" in rules_hit(src)

    def test_default_rng_without_seed(self):
        src = "import numpy as np\n\ndef f():\n    return np.random.default_rng()\n"
        assert "DET001" in rules_hit(src)

    def test_seeded_default_rng_is_clean(self):
        src = "import numpy as np\n\ndef f(seed):\n    return np.random.default_rng(seed)\n"
        assert rules_hit(src) == []

    def test_or_fallback_rng_flagged(self):
        src = (
            "import numpy as np\n\n"
            "def f(rng=None):\n"
            "    rng = rng or np.random.default_rng(0)\n"
            "    return rng\n"
        )
        assert "DET001" in rules_hit(src)

    def test_if_none_fallback_rng_flagged(self):
        src = (
            "import numpy as np\n\n"
            "def f(rng=None):\n"
            "    if rng is None:\n"
            "        rng = np.random.default_rng(7)\n"
            "    return rng\n"
        )
        assert "DET001" in rules_hit(src)

    def test_default_argument_rng_flagged(self):
        src = (
            "import numpy as np\n\n"
            "def f(rng=np.random.default_rng(0)):\n"
            "    return rng\n"
        )
        assert "DET001" in rules_hit(src)

    def test_injected_generator_draw_is_clean(self):
        src = "def f(rng):\n    return rng.integers(0, 10)\n"
        assert rules_hit(src) == []

    def test_generator_annotation_is_clean(self):
        src = (
            "import numpy as np\n\n"
            "def f(rng: np.random.Generator) -> np.random.Generator:\n"
            "    return rng\n"
        )
        assert rules_hit(src) == []


class TestDET002WallClock:
    def test_time_time_flagged(self):
        src = "import time\n\ndef f():\n    return time.time()\n"
        assert "DET002" in rules_hit(src)

    def test_datetime_now_flagged(self):
        src = "from datetime import datetime\n\ndef f():\n    return datetime.now()\n"
        assert "DET002" in rules_hit(src, path="repro/ml/snippet.py")

    def test_datetime_utcnow_via_module_import(self):
        src = "import datetime\n\ndef f():\n    return datetime.datetime.utcnow()\n"
        assert "DET002" in rules_hit(src, path="repro/analysis/snippet.py")

    def test_perf_counter_flagged_outside_obs(self):
        # Duration clocks are reserved for repro.obs (obs.timer).
        src = "import time\n\ndef f():\n    return time.perf_counter()\n"
        assert "DET002" in rules_hit(src)

    def test_monotonic_flagged_outside_obs(self):
        src = "import time\n\ndef f():\n    return time.monotonic()\n"
        assert "DET002" in rules_hit(src, path="repro/ml/snippet.py")

    def test_perf_counter_allowed_in_obs(self):
        src = "import time\n\ndef f():\n    return time.perf_counter()\n"
        assert rules_hit(src, path="repro/obs/snippet.py") == []

    def test_obs_package_exempt(self):
        src = "import time\n\ndef f():\n    return time.time()\n"
        assert rules_hit(src, path="repro/obs/snippet.py") == []

    def test_local_name_time_not_confused(self):
        src = "def f(time):\n    return time.time()\n"
        assert rules_hit(src) == []


class TestDET003UnorderedIteration:
    def test_for_over_set_literal(self):
        src = "for x in {1, 2, 3}:\n    print(x)\n"
        assert "DET003" in rules_hit(src)

    def test_for_over_set_variable(self):
        src = "seen = set()\nfor x in seen:\n    print(x)\n"
        assert "DET003" in rules_hit(src)

    def test_for_over_annotated_set(self):
        src = (
            "def f(docs):\n"
            "    seen: set[str] = set()\n"
            "    out = []\n"
            "    for x in seen:\n"
            "        out.append(x)\n"
            "    return out\n"
        )
        assert "DET003" in rules_hit(src)

    def test_listdir_iteration_flagged(self):
        src = "import os\n\ndef f(d):\n    return [p for p in os.listdir(d)]\n"
        assert "DET003" in rules_hit(src)

    def test_glob_iteration_flagged(self):
        src = "import glob\n\ndef f(d):\n    for p in glob.glob(d):\n        print(p)\n"
        assert "DET003" in rules_hit(src)

    def test_pathlib_rglob_flagged(self):
        src = (
            "from pathlib import Path\n\n"
            "def f(root):\n"
            "    for p in Path(root).rglob('*.py'):\n"
            "        print(p)\n"
        )
        assert "DET003" in rules_hit(src)

    def test_sorted_wrap_is_clean(self):
        src = (
            "import os\n\n"
            "def f(d, seen=None):\n"
            "    seen = {1, 2}\n"
            "    for p in sorted(os.listdir(d)):\n"
            "        print(p)\n"
            "    for x in sorted(seen):\n"
            "        print(x)\n"
        )
        assert rules_hit(src) == []

    def test_order_insensitive_sinks_clean(self):
        src = (
            "def f(xs):\n"
            "    seen = set(xs)\n"
            "    n = len(seen)\n"
            "    total = sum(seen)\n"
            "    lo, hi = min(seen), max(seen)\n"
            "    other = frozenset(seen)\n"
            "    return 1 in seen, n, total, lo, hi, other\n"
        )
        assert rules_hit(src) == []

    def test_tuple_of_set_flagged(self):
        src = "def f(xs):\n    return tuple({x for x in xs})\n"
        assert "DET003" in rules_hit(src)

    def test_join_of_set_flagged(self):
        src = "def f(xs):\n    return ','.join(set(xs))\n"
        assert "DET003" in rules_hit(src)

    def test_self_attribute_set_tracked_across_methods(self):
        src = (
            "class C:\n"
            "    def __init__(self):\n"
            "        self._tracked: set[str] = set()\n"
            "    def dump(self):\n"
            "        return [x for x in self._tracked]\n"
        )
        assert "DET003" in rules_hit(src)

    def test_reassigned_to_ordered_clears_tracking(self):
        src = (
            "def f(xs):\n"
            "    items = set(xs)\n"
            "    items = sorted(items)\n"
            "    return [x for x in items]\n"
        )
        assert rules_hit(src) == []

    def test_set_comprehension_from_set_is_clean(self):
        src = "def f(xs):\n    s = set(xs)\n    return {x + 1 for x in s}\n"
        assert rules_hit(src) == []


class TestBUG001MutableDefault:
    def test_list_default(self):
        src = "def f(xs=[]):\n    return xs\n"
        assert "BUG001" in rules_hit(src)

    def test_dict_and_set_call_defaults(self):
        src = "def f(a={}, b=set(), c=dict()):\n    return a, b, c\n"
        assert "BUG001" in rules_hit(src)

    def test_kwonly_default(self):
        src = "def f(*, cache=[]):\n    return cache\n"
        assert "BUG001" in rules_hit(src)

    def test_defaultdict_default(self):
        src = (
            "import collections\n\n"
            "def f(table=collections.defaultdict(list)):\n"
            "    return table\n"
        )
        assert "BUG001" in rules_hit(src)

    def test_none_and_tuple_defaults_clean(self):
        src = "def f(a=None, b=(), c='x', d=0):\n    return a, b, c, d\n"
        assert rules_hit(src) == []


class TestML001FloatEquality:
    def test_float_literal_equality_in_ml(self):
        src = "def f(x):\n    return x == 0.5\n"
        assert "ML001" in rules_hit(src, path="repro/ml/snippet.py")

    def test_not_equal_flagged(self):
        src = "def f(x):\n    return x != 1.0\n"
        assert "ML001" in rules_hit(src, path="repro/statstests/snippet.py")

    def test_int_equality_clean(self):
        src = "def f(x):\n    return x == 0\n"
        assert rules_hit(src, path="repro/ml/snippet.py") == []

    def test_inequality_comparison_clean(self):
        src = "def f(x):\n    return x < 0.5\n"
        assert rules_hit(src, path="repro/ml/snippet.py") == []

    def test_outside_numeric_packages_not_flagged(self):
        src = "def f(x):\n    return x == 0.5\n"
        assert rules_hit(src, path="repro/platform/snippet.py") == []


class TestOBS001ConfigureWithoutReset:
    def test_configure_without_reset_flagged(self):
        src = (
            "from repro import obs\n\n"
            "def main():\n"
            "    obs.configure()\n"
            "    return 0\n"
        )
        assert "OBS001" in rules_hit(src, path="repro/tool.py")

    def test_configure_with_reset_clean(self):
        src = (
            "from repro import obs\n\n"
            "def main():\n"
            "    obs.configure()\n"
            "    try:\n"
            "        return 0\n"
            "    finally:\n"
            "        obs.reset()\n"
        )
        assert rules_hit(src, path="repro/tool.py") == []

    def test_module_without_configure_clean(self):
        src = "from repro import obs\n\nobs.counter('x').inc()\n"
        assert rules_hit(src, path="repro/tool.py") == []


class TestSyntaxError:
    def test_unparsable_file_reported(self):
        findings = analyze_source("def f(:\n", path="repro/broken.py")
        assert [f.rule for f in findings] == ["SYNTAX"]
