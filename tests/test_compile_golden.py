"""Golden compiled schedules: every codesign's exact op list is pinned.

The QCCD compilers are deterministic, so a refactor or optimisation of
the routing layer must reproduce each schedule bit for bit.  For every
registered codesign on BB [[72,12,6]] and the distance-5 surface code
this pins the makespan, the op and shuttle counts, the roadblock
statistics and a SHA-256 digest of the full operation list.  A second
check compiles in subprocesses under different ``PYTHONHASHSEED``
values, so no tie-break may depend on string-set iteration order.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.codes import code_by_name, surface_code
from repro.core.codesign import available_codesigns, codesign_by_name


def schedule_digest(compiled) -> str:
    """SHA-256 over every op's fields, in emission order."""
    digest = hashlib.sha256()
    for op in compiled.operations:
        fields = (op.kind.value, op.start_us, op.duration_us, op.qubits,
                  op.location, op.note, op.multiplicity)
        digest.update(repr(fields).encode())
        digest.update(b"\n")
    return digest.hexdigest()


# (execution_time_us, num_operations, shuttle_count, roadblock_wait_us,
#  roadblock_events, schedule_digest)
GOLDEN = {
    "BB [[72,12,6]]": {
        "alternate_grid": (
            122350.0, 7315, 6405, 3463000.0, 841,
            "787964924b39573d97a3d1f5f60fa9724baff9a55e165f28d56f0c30b78900b0",
        ),
        "baseline": (
            192450.0, 7415, 6502, 5459840.0, 886,
            "a5a2f32c81bfa6b2451038343a7cf7bb50fc474ebc5cbb02dadc77c215c34086",
        ),
        "baseline2": (
            170530.0, 7449, 6531, 4810200.0, 854,
            "5a3b494ee48d63e3cb2cf86e13d41e9cf3524afc670f5a8654359e9f3ef8e054",
        ),
        "baseline3": (
            84490.0, 4387, 3579, 4323660.0, 651,
            "f90f195d2ab1b1346de1673f977994b62a6130b7a01fead396944bb3a6d52c96",
        ),
        "baseline_grid_dynamic": (
            126300.0, 8654, 7718, 1648040.0, 683,
            "63440113ed270d2dc6f56af9a2da874910beefa15791957c3ad344ed56465c0a",
        ),
        "cyclone": (
            45560.0, 794, 8064, 0.0, 0,
            "1d5f3f1f2b9be2b27e1498cfd759f097629493983ca498437679c3ba85ce5239",
        ),
        "ejf_ring": (
            365060.0, 8856, 7949, 11251560.0, 802,
            "9be12b8b78144e86659dff1686e0288470c5253c83fee103b76a2219f5e9bc8b",
        ),
        "mesh_junction": (
            115540.0, 1753, 31104, 0.0, 0,
            "c371c92ffb4b2f8af9bbd91726aec8130c3e2c53b45b9e8198fef43eb84dd379",
        ),
    },
    "surface-d5": {
        "alternate_grid": (
            17220.0, 695, 532, 98040.0, 91,
            "a780ab12c2ab62c0c116c1e5fb6255c40f1ae6a6f6175c068d33c6d19d1630e8",
        ),
        "baseline": (
            20290.0, 662, 502, 102310.0, 96,
            "a7d9382aaa2c614c86f6b6aeaf2a6b7a422a95fbd6b60a36289fa4beebf1f585",
        ),
        "baseline2": (
            24790.0, 827, 657, 161040.0, 98,
            "d94388e9bd3ae8ae3c0ae5d6b6b1a6e790b44af8bb79ef9d8a4acae6d4389c83",
        ),
        "baseline3": (
            14340.0, 475, 333, 143850.0, 72,
            "fd7203f061f72ddf27a802cb6c0dbf803e333fb2e84c3dd4b04e89e1077eecaa",
        ),
        "baseline_grid_dynamic": (
            17310.0, 746, 562, 42070.0, 32,
            "aa850ab4fc0dafa3b0e8cf0752d5bd7a23758f43938d10bc8befe2b7a690aeb9",
        ),
        "cyclone": (
            13420.0, 202, 960, 0.0, 0,
            "070695ee1f59f998b9f99ebd182aad725e884ab43599cbe650ca941d95c32252",
        ),
        "ejf_ring": (
            37010.0, 762, 600, 293700.0, 111,
            "061b5bf71df6df51717b3fabfe24bafc40e57ec17adffbeac72eafac6942f43f",
        ),
        "mesh_junction": (
            27140.0, 401, 1920, 0.0, 0,
            "d689f2f843054d7a68976ade7811c1548d1a7d3659fd673686b96b5b4f223e30",
        ),
    },
}

_CODES = {
    "BB [[72,12,6]]": lambda: code_by_name("BB [[72,12,6]]"),
    "surface-d5": lambda: surface_code(5),
}


@pytest.fixture(scope="module", params=sorted(_CODES))
def golden_code(request):
    code = _CODES[request.param]()
    assert code.name == request.param
    return code


def test_golden_covers_every_codesign():
    for table in GOLDEN.values():
        assert sorted(table) == available_codesigns()


@pytest.mark.parametrize("name", available_codesigns())
def test_compiled_schedule_matches_golden(golden_code, name):
    compiled = codesign_by_name(name).compile(golden_code)
    observed = (
        compiled.execution_time_us,
        compiled.num_operations,
        compiled.shuttle_count(),
        compiled.metadata["roadblock_wait_us"],
        compiled.metadata["roadblock_events"],
        schedule_digest(compiled),
    )
    assert observed == GOLDEN[golden_code.name][name]


_DIGEST_SCRIPT = "import hashlib, json\n" + inspect.getsource(
    schedule_digest
) + """
from repro.codes import surface_code
from repro.core.codesign import available_codesigns, codesign_by_name

code = surface_code(3)
print(json.dumps({
    name: schedule_digest(codesign_by_name(name).compile(code))
    for name in available_codesigns()
}))
"""


def _digests_under_hash_seed(seed: str) -> dict[str, str]:
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(src))
    result = subprocess.run(
        [sys.executable, "-c", _DIGEST_SCRIPT], env=env, check=True,
        capture_output=True, text=True, timeout=300,
    )
    return json.loads(result.stdout)


def test_schedules_independent_of_hash_seed():
    first = _digests_under_hash_seed("0")
    second = _digests_under_hash_seed("1")
    assert sorted(first) == available_codesigns()
    assert first == second
