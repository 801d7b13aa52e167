"""The randomized property suite itself: registry shape and determinism."""

import json
import subprocess
import sys
import textwrap

from condual.properties import run_property_suite

from helpers import subprocess_env


def test_suite_passes_and_is_deterministic():
    first = run_property_suite(123)
    second = run_property_suite(123)
    assert all(r.passed for r in first)
    assert [r.name for r in first] == [r.name for r in second]
    assert [r.detail for r in first] == [r.detail for r in second]


def test_registry_names_unique():
    results = run_property_suite(1)
    names = [r.name for r in results]
    assert len(names) == len(set(names))
    assert len(names) >= 12


def test_scale_multiplies_cases():
    small = {r.name: r.cases for r in run_property_suite(5, scale=1)}
    big = {r.name: r.cases for r in run_property_suite(5, scale=2)}
    assert all(big[n] == 2 * small[n] for n in small)


def test_first_draws_do_not_depend_on_hash_seed():
    # the same seed must draw the same instances in every process, whatever
    # PYTHONHASHSEED is
    script = textwrap.dedent("""
        import json
        from condual import properties

        draws = {}

        def first_draw(name):
            def record(rng, count):
                draws[name] = rng.random()
            return record

        properties._REGISTRY[:] = [(name, first_draw(name), cases)
                                   for name, _, cases in properties._REGISTRY]
        properties.run_property_suite(7)
        print(json.dumps(draws))
    """)
    runs = []
    for hash_seed in ("1", "2"):
        env = subprocess_env()
        env["PYTHONHASHSEED"] = hash_seed
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        runs.append(json.loads(proc.stdout))
    assert len(runs[0]) >= 12
    assert runs[0] == runs[1]
