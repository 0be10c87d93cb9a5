"""What a run imports: ``import repro`` loads no protocol stack, and a
``Cluster`` build loads only its own protocol's modules.

Each check runs in a fresh interpreter, since this one has everything
loaded already.  Nothing here is timed.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: The modules only one protocol, or only the total-order layer, needs.
#: Each protocol's wire classes are a module of their own, so a build
#: registers (and compiles sizers for) only the payloads it sends.
STACK_MODULES = {
    "rbp": {"repro.core.reliable_protocol", "repro.core.rbp_termination", "repro.core.rbp_events"},
    "cbp": {
        "repro.core.causal_protocol",
        "repro.core.cbp_events",
        "repro.broadcast.causal",
        "repro.broadcast.vector_clock",
    },
    "abp": {"repro.core.atomic_protocol", "repro.core.abp_events"},
    "p2p": {"repro.baselines.p2p_2pc", "repro.baselines.p2p_events"},
    "total order": {"repro.broadcast.total", "repro.broadcast.stability"},
}

#: What a build of each protocol must leave unloaded (ABP rides on causal).
NOT_LOADED_BY = {
    "rbp": ("cbp", "abp", "p2p", "total order"),
    "cbp": ("abp", "p2p", "total order"),
    "abp": ("rbp", "p2p"),
    "p2p": ("rbp", "cbp", "abp", "total order"),
}


def run_fresh(code: str):
    """Run ``code`` in a fresh interpreter; return the JSON it prints last."""
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=60,
    )
    return json.loads(done.stdout.splitlines()[-1])


def loaded_after(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running ``code``."""
    return set(run_fresh(code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"))


def test_import_repro_loads_no_stack_and_no_process_pool():
    loaded = loaded_after("import repro")
    assert {name for name in loaded if name.startswith("repro.")} == set()
    assert "multiprocessing" not in loaded
    assert "concurrent.futures" not in loaded


@pytest.mark.parametrize("protocol", sorted(NOT_LOADED_BY))
def test_a_cluster_build_loads_only_its_own_protocol_stack(protocol):
    loaded = loaded_after(
        "from repro import Cluster, ClusterConfig\n"
        f"Cluster(ClusterConfig(protocol={protocol!r}, num_sites=3))"
    )
    assert STACK_MODULES[protocol] <= loaded
    for other in NOT_LOADED_BY[protocol]:
        assert not STACK_MODULES[other] & loaded, (protocol, other)
    assert "concurrent.futures" not in loaded


def test_every_public_name_resolves_by_getattr_and_by_star_import():
    by_getattr = run_fresh(
        "import json, repro\n"
        "print(json.dumps({n: getattr(repro, n) is not None for n in repro.__all__}))"
    )
    by_star = run_fresh(
        "import json, repro\nnamespace = {}\nexec('from repro import *', namespace)\n"
        "print(json.dumps(sorted(set(repro.__all__) - set(namespace))))"
    )
    assert by_getattr == dict.fromkeys(repro.__all__, True)
    assert by_star == []
    assert set(repro.__all__) <= set(dir(repro))


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.no_such_name
    assert not hasattr(repro, "Replica")
