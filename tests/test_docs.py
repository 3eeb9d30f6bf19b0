"""Docs are part of correctness: DESIGN.md's module map must name every
package (and every module) that exists under ``src/repro``."""

from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _module_map() -> str:
    design = (ROOT / "DESIGN.md").read_text()
    return design.split("## 2. System inventory")[1].split("\n## 3.")[0]


def _packages(base: Path, prefix: str = "repro"):
    for path in sorted(base.iterdir()):
        if path.is_dir() and (path / "__init__.py").exists():
            yield f"{prefix}.{path.name}", path
            yield from _packages(path, f"{prefix}.{path.name}")


def test_module_map_names_every_package():
    section = _module_map()
    missing = [
        name for name, _path in _packages(ROOT / "src" / "repro")
        if f"`{name}`" not in section and f"`{name}." not in section
    ]
    assert not missing, f"DESIGN.md §2 does not mention packages: {missing}"


def test_module_map_names_every_module():
    section = _module_map()
    missing = []
    for name, path in _packages(ROOT / "src" / "repro"):
        for mod in sorted(path.glob("*.py")):
            if mod.stem.startswith("__"):
                continue
            if f"`{name}.{mod.stem}`" not in section and f"`.{mod.stem}`" not in section:
                missing.append(f"{name}.{mod.stem}")
    assert not missing, f"DESIGN.md §2 does not mention modules: {missing}"


def test_layout_lists_every_top_level_package():
    layout = (ROOT / "DESIGN.md").read_text().split("## 5. Layout")[1]
    missing = [
        p.name for p in sorted((ROOT / "src" / "repro").iterdir())
        if p.is_dir() and (p / "__init__.py").exists() and f"{p.name}/" not in layout
    ]
    assert not missing, f"DESIGN.md §5 layout omits: {missing}"
