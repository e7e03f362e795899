"""The benchmark's correctness checks, made outside the timed operations.

Every distinct answer is checked against :mod:`oracle` (order, ACL and
content), repeated answers against the first one, and for a durable
workload the final directory against the dict model of the acknowledged
writes, before and after a reopen of its data dir.
"""

from __future__ import annotations

from oracle import Directory, check_answer, entry_pairs
from workloads import CLIENT_DN, DirectoryService, ResultCode, apply_to_model


def check_pass(inputs, records, mismatches=(), replay_all=False):
    """Check every distinct answer against the oracle, replaying the
    acknowledged writes into a copy of the model.  ``records`` holds the
    writes and the first answer per (query, directory version) in order;
    ``mismatches`` the queries whose repeated answer differed from the
    first.  Writes after the last answer are replayed only with
    ``replay_all``.  Returns (distinct answers checked, problems, model)."""
    if not replay_all:
        last = max((i for i, r in enumerate(records) if r[0][0] == "search"),
                   default=-1)
        records = records[:last + 1]
    writes = any(op[0] != "search" for op, _, _ in records)
    model = Directory(dict(inputs.model.entries)) if writes else inputs.model
    rules = inputs.rules
    subject = CLIENT_DN if rules is not None else None
    problems = ["%s: answer changed without a write" % text for text in mismatches]
    checked = 0
    for op, ok, entries in records:
        if op[0] != "search":
            if ok:
                apply_to_model(model, op)
            continue
        if not ok:
            continue
        checked += 1
        dns = [str(entry.dn) for entry in entries]
        expected = model.answer(inputs.pool[op[1]])
        for problem in check_answer(dns, expected, rules, subject):
            problems.append("%s: %s" % (inputs.texts[op[1]], problem))
        if len(problems) > 20:
            break
    return checked, problems, model


def contents_problems(svc, model, label):
    """The directory as the service returns it versus the dict model."""
    result = svc.search("( ? sub ? objectClass=*)")
    if result.code != ResultCode.SUCCESS:
        return 1, ["%s: listing failed with %s" % (label, result.code)]
    got = {str(e.dn): {(a, str(v)) for a, v in e.pairs()} for e in result.entries}
    want = {dn: entry_pairs(attrs) for dn, attrs in model.entries.items()}
    problems = []
    if set(got) != set(want):
        problems.append("%s: %d entries missing, %d extra" % (
            label, len(set(want) - set(got)), len(set(got) - set(want))))
    differing = [dn for dn in set(got) & set(want) if got[dn] != want[dn]]
    if differing:
        problems.append("%s: %d entries differ, e.g. %s" % (label, len(differing), differing[0]))
    return 1, problems


def durable_checks(inputs, setup, model):
    """Write-mix: the final contents equal the model, before and after a
    reopen of the data dir.  Returns (operations, problems)."""
    ops, problems = contents_problems(setup.svc, model, "final contents")
    setup.svc.close()
    reopened = DirectoryService(None, durable_dir=setup.data_dir)
    try:
        more, after = contents_problems(reopened, model, "after reopen")
    finally:
        reopened.close()
    return ops + more, problems + after
