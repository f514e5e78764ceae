"""The cyclic-collector pause around bulk IR construction.

``textir.parse_module`` and ``bytecode.decode_module`` build modules
with the collector paused, and must leave ``gc.isenabled()`` as they
found it: after success and after a failure, when nested, when the
caller had disabled the collector, and with several threads at once.
"""

from __future__ import annotations

import gc
import sys
import threading

import pytest

from repro.builtin import default_context
from repro.bytecode import BytecodeError, decode_module, encode_module
from repro.ir.gcpause import BULK_BUILD, CollectorPause
from repro.textir import parse_module
from repro.utils.diagnostics import DiagnosticError

MODULE = '"test.op"() : () -> ()\n"test.op"() : () -> ()\n'


@pytest.fixture
def context():
    return default_context(allow_unregistered=True)


@pytest.fixture(autouse=True)
def collector_enabled():
    """Every test starts with the collector on and leaves it on."""
    gc.enable()
    yield
    gc.enable()


def test_no_collection_while_parsing(context):
    """A pause-free parse of this module runs dozens of collections; the
    paused one runs at most the one the collector's own thresholds start
    right after it is enabled again."""
    starts = []

    def record(phase: str, info: dict) -> None:
        if phase == "start":
            starts.append(info["generation"])

    gc.callbacks.append(record)
    try:
        parse_module(context, MODULE * 2000)
    finally:
        gc.callbacks.remove(record)
    assert len(starts) <= 1
    assert gc.isenabled()


def test_pause_disables_inside(context):
    with BULK_BUILD.paused():
        assert not gc.isenabled()
        parse_module(context, MODULE)
        assert not gc.isenabled()
    assert gc.isenabled()


def test_restored_after_success(context):
    parse_module(context, MODULE)
    decode_module(context, encode_module(parse_module(context, MODULE)))
    assert gc.isenabled()


def test_restored_after_diagnostic_error(context):
    with pytest.raises(DiagnosticError):
        parse_module(context, '"test.op"(%undefined) : (i32) -> ()\n')
    assert gc.isenabled()


def test_restored_after_bytecode_error(context):
    data = encode_module(parse_module(context, MODULE))
    with pytest.raises(BytecodeError):
        decode_module(context, data[: len(data) // 2])
    assert gc.isenabled()


def test_caller_disabled_collector_stays_disabled(context):
    gc.disable()
    parse_module(context, MODULE)
    decode_module(context, encode_module(parse_module(context, MODULE)))
    with pytest.raises(DiagnosticError):
        parse_module(context, '"test.op"(')
    assert not gc.isenabled()


def test_nested_pauses():
    pause = CollectorPause()
    with pause.paused():
        with pause.paused():
            assert not gc.isenabled()
        assert not gc.isenabled()
    assert gc.isenabled()


def test_two_threads_overlapping():
    """The collector comes back only when the last pause ends, in
    whichever order the threads leave."""
    pause = CollectorPause()
    inside = threading.Barrier(2, timeout=30)
    first_left = threading.Event()
    states: dict[str, bool] = {}

    def first() -> None:
        with pause.paused():
            inside.wait()
        states["after first"] = gc.isenabled()
        first_left.set()

    def second() -> None:
        with pause.paused():
            inside.wait()
            first_left.wait(timeout=30)
            states["second still inside"] = gc.isenabled()

    threads = [threading.Thread(target=first), threading.Thread(target=second)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert states == {"after first": False, "second still inside": False}
    assert gc.isenabled()


def test_threads_parsing_at_once(context):
    errors: list[BaseException] = []

    def work() -> None:
        try:
            for _ in range(20):
                parse_module(context, MODULE * 20)
                with pytest.raises(DiagnosticError):
                    parse_module(context, '"test.op"(')
        except BaseException as err:  # reported, and fails the test below
            errors.append(err)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert gc.isenabled()
