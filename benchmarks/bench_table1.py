"""Table I — regenerate the worst-case variance regime table."""

from _common import record, run_once

from repro.experiments import table1


def test_table1():
    checks = run_once(table1.run)

    # Every predicted ordering must hold, in every regime.
    assert all(check.holds for check in checks)
    # All five d = 1 regimes and the d > 1 block are covered.
    regimes = {check.regime for check in checks}
    assert regimes == {
        "eps > eps#",
        "eps = eps#",
        "eps* < eps < eps#",
        "0 < eps <= eps*",
        "d > 1",
    }

    lines = [
        f"{c.regime:<20} d={c.d:<3} eps={c.epsilon:<8.4f} "
        f"HM={c.var_hm:<12.5f} PM={c.var_pm:<12.5f} Du={c.var_duchi:<12.5f} "
        f"{c.expected}"
        for c in checks
    ]
    record("table1", "Table I regime verification\n" + "\n".join(lines))
