#!/usr/bin/env python3
"""Print the three benchmark comparison tables, computed next to published.

Usage: python scripts/reproduce_tables.py
"""

from seeksim.metrics import display
from seeksim.model import TransferModel, validate_instance
from seeksim.report import PUBLISHED_TABLES, run_comparison
from seeksim.workload import reference_case


def main() -> None:
    model = TransferModel()
    for case_id in (1, 2, 3):
        queue, head, geometry = reference_case(case_id)
        instance = validate_instance(queue, head, geometry)
        report = run_comparison(instance, model, case_id=case_id)
        print(f"case {case_id}: head {head}, requests {list(queue)}")
        print(f"  {'algorithm':<10} {'avg seek':>10} {'transfer':>10} {'published':>10} {'':>9}")
        for row in report.rows:
            pub_avg, _ = PUBLISHED_TABLES[case_id][row.algorithm]
            mark = "" if float(pub_avg) == row.average_seek else "DIVERGES"
            print(
                f"  {row.algorithm:<10} {display(row.average_seek):>10} "
                f"{display(row.transfer_time):>10} {pub_avg:>10} {mark:>9}"
            )
        print()


if __name__ == "__main__":
    main()
