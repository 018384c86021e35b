#!/usr/bin/env python3
"""Run the closed-form-vs-oracle verification over the bundled config corpus
and print one line per config.  Exits 1 if any config mismatches, and 2 if
any config does not load or cannot be verified (its line then reads
``<name>  error: <message>``)."""

import sys
from pathlib import Path

from latrec import ConfigError, ParseError, SpecError, load_config, spec_hash
from latrec.cli import run_verify

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def main() -> int:
    worst = 0
    configs = sorted(CONFIG_DIR.glob("*.json"))
    if not configs:
        print(f"no configs found under {CONFIG_DIR}", file=sys.stderr)
        return 2
    width = max(len(c.name) for c in configs)
    for config in configs:
        try:
            cfg = load_config(str(config))
            status, text = run_verify(cfg, "auto")
        except (ConfigError, SpecError, ParseError, OSError) as exc:
            print(f"{config.name:<{width}}  error: {exc}")
            worst = 2
            continue
        summary = text.splitlines()[1]
        print(f"{config.name:<{width}}  spec={spec_hash(cfg.spec)}  {summary}")
        worst = max(worst, status)
    print(f"{len(configs)} configs checked")
    return worst


if __name__ == "__main__":
    sys.exit(main())
