"""Correctness gate: golden stats digests and the reference-model check.

A report's stats body is the CLI's JSON report without its `config`
section (which names the trace file). Its digest is the sha256 of the body
as canonical JSON, so any changed stats field changes the digest.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

GOLDEN_SEED = 1
GOLDEN_FILE = Path(__file__).with_name("golden.json")


def stats_body(report: dict) -> dict:
    return {k: v for k, v in report.items() if k != "config"}


def digest(report: dict) -> str:
    text = json.dumps(stats_body(report), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def check_golden(name: str, report: dict) -> list:
    """Errors unless the report's digest equals the recorded golden one."""
    golden = json.loads(GOLDEN_FILE.read_text()).get(name)
    got = digest(report)
    if golden != got:
        return [f"{name}: stats digest {got[:16]} != golden {str(golden)[:16]} "
                f"(seed {GOLDEN_SEED})"]
    return []


def load_reference_model(root: Path):
    """tests/reference_model.RefModel, imported without writing bytecode."""
    path = root / "tests" / "reference_model.py"
    spec = importlib.util.spec_from_file_location("reference_model", path)
    module = importlib.util.module_from_spec(spec)
    old, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = old
    return module.RefModel


def check_reference(ref_model, workload, accesses: list, report: dict) -> list:
    """Errors unless the report's stats equal the reference model's on the
    same accesses."""
    expected = ref_model(**workload.reference_kwargs()).run(accesses)
    got = report["stats"]
    if got == expected:
        return []
    fields = sorted(k for k in expected if got.get(k) != expected[k])
    return [f"{workload.name}: differs from the reference model on "
            f"{len(accesses)} records in {fields}"]
