"""PAR001/PAR002: parallel-capture safety and seed discipline."""

from repro.statan.engine import analyze_tree


def rules_fired(root, rule):
    findings, _ = analyze_tree([root])
    return [f for f in findings if f.rule == rule]


class TestPar001:
    def test_lambda_submission_is_flagged(self, write_tree):
        root = write_tree({
            "ml/jobs.py": (
                "from repro.parallel import parallel_map\n"
                "\n"
                "def launch(tasks):\n"
                "    return parallel_map(lambda t: t * 2, [(t,) for t in tasks])\n"
            ),
        })
        findings = rules_fired(root, "PAR001")
        assert len(findings) == 1
        assert "lambda" in findings[0].message

    def test_nested_def_submission_names_captured_generator(self, write_tree):
        root = write_tree({
            "ml/jobs.py": (
                "import numpy as np\n"
                "from repro.parallel import ProcessExecutor\n"
                "\n"
                "def launch(tasks):\n"
                "    rng = np.random.default_rng(7)\n"
                "    def worker(t):\n"
                "        return rng.normal() + t\n"
                "    ex = ProcessExecutor(2)\n"
                "    return ex.map(worker, [(t,) for t in tasks])\n"
            ),
        })
        findings = rules_fired(root, "PAR001")
        assert len(findings) == 1
        assert "worker" in findings[0].message
        assert "Generator 'rng'" in findings[0].message

    def test_module_global_accumulator_worker_is_flagged(self, write_tree):
        root = write_tree({
            "ml/jobs.py": (
                "from repro.parallel import parallel_map\n"
                "\n"
                "_RESULTS = []\n"
                "\n"
                "def worker(t):\n"
                "    _RESULTS.append(t)\n"
                "    return t\n"
                "\n"
                "def launch(tasks):\n"
                "    return parallel_map(worker, [(t,) for t in tasks])\n"
            ),
        })
        findings = rules_fired(root, "PAR001")
        assert len(findings) == 1
        assert "_RESULTS" in findings[0].message

    def test_per_process_memo_cache_is_allowed(self, write_tree):
        # Subscript-assign caches (`_CACHE[key] = value`) are deliberate
        # per-process memoisation, not lost results.
        root = write_tree({
            "ml/jobs.py": (
                "from repro.parallel import parallel_map\n"
                "\n"
                "_CACHE = {}\n"
                "\n"
                "def worker(t):\n"
                "    if t not in _CACHE:\n"
                "        _CACHE[t] = t * 2\n"
                "    return _CACHE[t]\n"
                "\n"
                "def launch(tasks):\n"
                "    return parallel_map(worker, [(t,) for t in tasks])\n"
            ),
        })
        assert rules_fired(root, "PAR001") == []

    def test_module_level_picklable_worker_is_silent(self, write_tree):
        root = write_tree({
            "ml/jobs.py": (
                "from repro.parallel import parallel_map\n"
                "\n"
                "def worker(t, seed):\n"
                "    return t + seed\n"
                "\n"
                "def launch(tasks):\n"
                "    return parallel_map(worker, [(t, i) for i, t in enumerate(tasks)])\n"
            ),
        })
        assert rules_fired(root, "PAR001") == []


class TestPar002:
    def test_shipping_a_generator_in_tasks_is_flagged(self, write_tree):
        root = write_tree({
            "ml/jobs.py": (
                "import numpy as np\n"
                "from repro.parallel import parallel_map\n"
                "\n"
                "def worker(t, rng):\n"
                "    return rng.normal() + t\n"
                "\n"
                "def launch(tasks):\n"
                "    rng = np.random.default_rng(7)\n"
                "    return parallel_map(worker, [(t, rng) for t in tasks])\n"
            ),
        })
        findings = rules_fired(root, "PAR002")
        assert len(findings) == 1
        assert "ship Generator 'rng'" in findings[0].message
        assert "draw_seeds" in findings[0].message

    def test_randomness_without_seed_parameter_is_flagged(self, write_tree):
        root = write_tree({
            "ml/jobs.py": (
                "import numpy as np\n"
                "from repro.parallel import parallel_map\n"
                "\n"
                "def worker(t):\n"
                "    return np.random.normal() + t\n"
                "\n"
                "def launch(tasks):\n"
                "    return parallel_map(worker, [(t,) for t in tasks])\n"
            ),
        })
        findings = rules_fired(root, "PAR002")
        assert len(findings) == 1
        assert "no explicit seed parameter" in findings[0].message

    def test_seeded_worker_is_silent(self, write_tree):
        root = write_tree({
            "ml/jobs.py": (
                "import numpy as np\n"
                "from repro.parallel import parallel_map\n"
                "\n"
                "def worker(t, seed):\n"
                "    rng = np.random.default_rng(seed)\n"
                "    return rng.normal() + t\n"
                "\n"
                "def launch(tasks):\n"
                "    return parallel_map(worker, [(t, i) for i, t in enumerate(tasks)])\n"
            ),
        })
        assert rules_fired(root, "PAR002") == []

    def test_random_state_parameter_satisfies_the_contract(self, write_tree):
        root = write_tree({
            "ml/jobs.py": (
                "import numpy as np\n"
                "from repro.parallel import parallel_map\n"
                "\n"
                "def worker(t, random_state):\n"
                "    return np.random.default_rng(random_state).normal() + t\n"
                "\n"
                "def launch(tasks):\n"
                "    return parallel_map(worker, [(t, i) for i, t in enumerate(tasks)])\n"
            ),
        })
        assert rules_fired(root, "PAR002") == []

    def test_randomness_free_worker_is_silent(self, write_tree):
        root = write_tree({
            "ml/jobs.py": (
                "from repro.parallel import parallel_map\n"
                "\n"
                "def worker(t):\n"
                "    return t * 2\n"
                "\n"
                "def launch(tasks):\n"
                "    return parallel_map(worker, [(t,) for t in tasks])\n"
            ),
        })
        assert rules_fired(root, "PAR002") == []
