"""RPR008 bad fixture: memo-path functions reading ambient state directly.

Lives under ``sim/`` with memo-pattern names, so the rule applies even
though this is not one of the strict modules.  The ambient reads here
are chosen to be RPR008-exclusive (non-``REPRO_`` env names, file and
stdin reads) so the fixture exercises exactly one rule; a direct clock
or randomness read is RPR001's line, and RPR008 leaves it there.
"""

import os


def memo_key(trace, config):
    return (trace, config, os.getenv("HOSTNAME"))  # RPR008: env read


def functional_projection(config):
    return (config, os.environ["LANG"])  # RPR008: env read


def run_functional_memo(trace, config):
    return (trace, input())  # RPR008: stdin read


def trace_fingerprint(trace):
    with open("/tmp/salt") as handle:  # RPR008: file read
        return (trace, handle.read())
