"""The package's export list names only things that exist."""

import d2dcache


def test_every_export_resolves():
    assert len(set(d2dcache.__all__)) == len(d2dcache.__all__)
    for name in d2dcache.__all__:
        assert hasattr(d2dcache, name), name


def test_import_leaves_heavy_scipy_modules_out():
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(d2dcache.__file__).resolve().parents[1])
    heavy = "('scipy.integrate', 'scipy.stats', 'scipy.linalg')"
    code = f"import sys; sys.path.insert(0, {src!r}); import d2dcache; "
    code += f"print([m for m in {heavy} if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
