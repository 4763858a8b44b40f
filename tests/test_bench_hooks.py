"""The benchmark's tracer finds every function it wraps.

`bench/tracer.py` patches named functions of each `rrrt` layer; a name that
no longer exists is reported as missing and the traced run loses that span.
Patching each name with the identity puts back the same function, so this
checks every hook without changing anything.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "bench"))

import tracer  # noqa: E402


def test_every_traced_name_resolves():
    spans = tracer.Tracer()
    for name in tracer.TARGETS + [tracer.REGISTER]:
        spans._patch(name, lambda fn: fn)
    assert spans.missing == []
