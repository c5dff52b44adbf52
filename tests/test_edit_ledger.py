"""The work ledger (``scripts/edit_ledger.py``) is deterministic.

Two runs in fresh processes over the same two inputs must count the
same Python and C calls in every layer, and the same objects reclaimed
by the cyclic collector: the ledger is only useful as a regression
signal if it never moves on its own.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
SCRIPT = os.path.join(ROOT, "scripts", "edit_ledger.py")


def _ledger():
    output = subprocess.run(
        [sys.executable, SCRIPT, "--workload", "warm", "--seed", "3",
         "--json", "--only", "fib", "--only", "mips_fib"],
        check=True, capture_output=True, text=True, timeout=300).stdout
    return json.loads(output.splitlines()[-1])


def test_edit_ledger_counts_are_identical_across_runs():
    first, second = _ledger(), _ledger()
    assert first == second
    assert first["edits"] == 2
    for layer in ("read", "instrument", "regalloc", "layout", "write"):
        assert first[layer]["calls"] > 0, layer
        assert first[layer]["calls"] \
            == first[layer]["python"] + first[layer]["c"]
