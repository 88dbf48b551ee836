"""RPR008 good fixture: memo-path functions that are argument-pure."""

import hashlib


def memo_key(trace, config):
    return (trace_fingerprint(trace), config)


def trace_fingerprint(trace):
    digest = hashlib.sha256()
    for record in trace:
        digest.update(bytes(record))
    return digest.hexdigest()


def unrelated_helper(path):
    # Not memo-pattern-named and not in a strict module: ambient reads
    # here are RPR008-exempt unless a memo root calls this helper
    # (RPR003/RPR001 still apply on their own terms).
    return len(str(path))
