"""Protocol runtime: parties, protocols, transcripts and the engine.

Protocols are expressed in a coroutine style: each party is a generator that
*yields* the bit it beeps and is *sent back* the bit it received from the
channel.  This keeps multi-phase schemes (repetition coding, owner finding,
rewind-if-error) readable as straight-line code while the engine enforces the
beeping model's lock-step synchrony.

The paper's formalism — a protocol as a tuple ``(T, {f_m^i}, {g^i})`` of
explicit broadcast and output functions — is available in
:mod:`repro.core.formal` and is what the exact lower-bound machinery runs on.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "Party": "repro.core.party",
    "FunctionalParty": "repro.core.party",
    "Burst": "repro.core.party",
    "Silence": "repro.core.party",
    "Protocol": "repro.core.protocol",
    "FunctionalProtocol": "repro.core.protocol",
    "RoundRecord": "repro.core.transcript",
    "Transcript": "repro.core.transcript",
    "ExecutionResult": "repro.core.result",
    "run_protocol": "repro.core.engine",
    "FormalProtocol": "repro.core.formal",
    "formalize_protocol": "repro.core.formal",
    "SequentialProtocol": "repro.core.compose",
    "TruncatedProtocol": "repro.core.compose",
    "announce_input": "repro.core.compose",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
