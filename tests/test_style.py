"""Every line of the package and of the tests fits in 79 characters."""

import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
LIMIT = 79


def test_lines_fit_in_79_characters():
    files = sorted((ROOT / "src").rglob("*.py")) + sorted(
        (ROOT / "tests").glob("*.py"))
    assert files
    long = [f"{path.relative_to(ROOT)}:{number}: {len(line)} characters"
            for path in files
            for number, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), start=1)
            if len(line) > LIMIT]
    assert not long, "\n".join(long)
