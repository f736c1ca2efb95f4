import corpus


def test_every_group_keeps_its_report_bytes():
    """Every group of the byte corpus hashes as in the golden file. A change
    that means to change report bytes rewrites it (`python tests/corpus.py
    --write`) and names each changed group in CHANGES.md."""
    changed = corpus.differing(corpus.hashes(), corpus.read_golden())
    assert not changed, f"groups whose bytes differ from {corpus.GOLDEN.name}: {changed}"
