"""Mutation table: each row is a small defect planted in one file of
src/residuum and the tests that must catch it.

`tests/test_mutants.py` applies each row to its own copy of the tree, where
every listed node id must fail, and runs the same node ids on an unmutated
copy, where they must pass. A row's old text must occur exactly once in its
file; when a refactor moves or rewrites that text, re-target the row at the
code that now does the job, or retire it and say so in CHANGES.md.

The rows come in two groups: defects that earlier changes showed their tests
catch, and one defect per oracle that lives in tests/ (oracles.py, or the
test module that uses it), caught through that oracle.
"""

from collections import namedtuple

Mutant = namedtuple("Mutant", "name path old new node_ids")

MUTANTS = (
    # prime_factors' wheel starts at 1 for 7 <= least < 30, so it yields 1
    # forever
    Mutant(
        "wheel_starts_at_one",
        "fp.py",
        "dropwhile(start.__gt__, wheel)",
        "wheel",
        ("tests/test_fp.py::test_prime_factors_walks_from_least",),
    ),
    # make_context keeps 64 tables again, up to 64 * 40 MB near the ceiling
    Mutant(
        "table_cache_keeps_64",
        "fp.py",
        "@lru_cache(maxsize=1)",
        "@lru_cache(maxsize=64)",
        ("tests/test_fp.py::test_a_second_primes_table_evicts_the_first",),
    ),
    # the root table holds the larger root of each residue
    Mutant(
        "root_table_larger_root",
        "fp.py",
        "root[x * x % p] = x",
        "root[x * x % p] = p - x",
        ("tests/test_fp.py::test_root_table_matches_powers_of_a_generator",),
    ),
    # make_context hands out its cached table writable, so one caller's write
    # changes every later answer
    Mutant(
        "root_table_writable",
        "fp.py",
        "return memoryview(root).toreadonly()",
        "return root",
        ("tests/test_residue.py::test_a_write_to_a_cached_table_raises_and_changes_no_answer",),
    ),
    # pair_decompositions drops the Gaussian product pi^0 * conj(pi)^(2k)
    Mutant(
        "pairs_drop_a_product",
        "search.py",
        "zip(powers, reversed(powers))",
        "zip(powers[1:], reversed(powers))",
        (
            "tests/test_search.py::test_pair_decompositions_examples",
            "tests/test_search.py::test_pair_decompositions_match_euclid_over_the_whole_range",
        ),
    ),
    # two_squares: sqrt(-1) is c^((p-1)/4); c^((p-1)/2) is -1 itself
    Mutant(
        "two_squares_half_exponent",
        "fp.py",
        "pow(c, (p - 1) // 4, p)",
        "pow(c, (p - 1) // 2, p)",
        (
            "tests/test_fp.py::test_two_squares_of_large_primes",
            "tests/test_fp.py::test_two_square_splits_match_two_squares",
        ),
    ),
    # two_squares: a loop that stops at the first residue, not non-residue
    Mutant(
        "two_squares_residue_base",
        "fp.py",
        "legendre(c, p) != -1",
        "legendre(c, p) != 1",
        (
            "tests/test_fp.py::test_two_squares_of_large_primes",
            "tests/test_fp.py::test_two_square_splits_match_two_squares",
        ),
    ),
    # pair_decompositions keyed by the larger square of each product
    Mutant(
        "pairs_keyed_by_larger_square",
        "search.py",
        "min(x * x, y * y)",
        "max(x * x, y * y)",
        (
            "tests/test_search.py::test_pair_decompositions_examples",
            "tests/test_search.py::test_pair_decompositions_match_isqrt_oracle",
        ),
    ),
    # pair_decompositions keeps the product at e'^2, the pair (e^2, e^2)
    Mutant(
        "pairs_keep_the_center",
        "search.py",
        " - {half}",
        "",
        (
            "tests/test_search.py::test_pair_decompositions_examples",
            "tests/test_search.py::test_pair_decompositions_match_isqrt_oracle",
        ),
    ),
    # _merge drops the hit cells of every result
    Mutant(
        "merge_drops_hits",
        "search.py",
        "        hits += hit_cells\n",
        "",
        ("tests/test_search.py::test_merge_sums_the_counts_and_joins_the_cells_in_order",),
    ),
    # _assemble pairs each offset with the larger ones, not the smaller
    Mutant(
        "assemble_walks_the_wrong_half",
        "search.py",
        "descending[i + 1 :]",
        "descending[:i]",
        ("tests/test_search.py::test_scan_center_matches_layout_walker",),
    ),
    # _assemble's sum-triple skip reads only the row fix u - v
    Mutant(
        "assemble_skip_reads_one_fix",
        "search.py",
        "u - v not in lengths and u + v not in lengths",
        "u - v not in lengths",
        ("tests/test_search.py::test_assemble_matches_walker_where_hits_exist",),
    ),
    # _assemble's sum-triple skip reads only the fix u + v, so it loses the
    # Lo Shu's 6-line near misses whose fix is u - v
    Mutant(
        "assemble_skip_reads_the_other_fix",
        "search.py",
        "u - v not in lengths and u + v not in lengths",
        "u + v not in lengths",
        ("tests/test_search.py::test_assemble_finds_the_lo_shu",),
    ),
    # _assemble sends every hit to the near misses; the naive oracle's
    # positive control, the Lo Shu, is the one hit the tests assemble
    Mutant(
        "assemble_hits_become_near_misses",
        "search.py",
        "(hits if correct == 8 else nears).append(cells)",
        "nears.append(cells)",
        (
            "tests/test_search.py::test_completeness_against_naive_enumeration",
            "tests/test_acceptance.py::test_criterion_11_search_is_hit_free",
        ),
    ),
    # _assemble keeps dd = -db, a layout with a repeated cell
    Mutant(
        "assemble_keeps_opposite_offsets",
        "search.py",
        "                        if dd == -db:\n                            continue\n",
        "",
        ("tests/test_search.py::test_scan_center_matches_layout_walker",),
    ),
    # naive_enumerate: enumerate_all without the zero cells misses every
    # class with a zero
    Mutant(
        "enumerate_all_without_zero",
        "residue.py",
        "sq0 = (0, *compress(range(p), make_context(p)))",
        "sq0 = tuple(compress(range(p), make_context(p)))",
        (
            "tests/test_residue.py::test_naive_matches_reduced_oracle",
            "tests/test_acceptance.py::test_criterion_05_naive_oracle_cross_validation",
        ),
    ),
    # generated_classes: enumerate_all keeps the all-zero grid, which no
    # orbit of a canonical class holds
    Mutant(
        "enumerate_all_keeps_all_zero",
        "residue.py",
        "                    if not any(vals):\n                        continue\n",
        "",
        (
            "tests/test_residue.py::test_generated_equals_enumerated",
            "tests/test_acceptance.py::test_criterion_04_bound_and_generated_equal_oracle",
        ),
    ),
    # orbit: two corners of the nontrivial class swapped, so its top row
    # sums to -2 and orbit refuses it as not magic
    Mutant(
        "nontrivial_corners_swapped",
        "residue.py",
        "(-b2, g2, 1, a2, 0, -a2, -1, -g2, b2)",
        "(-b2, g2, -1, a2, 0, -a2, 1, -g2, b2)",
        (
            "tests/test_residue.py::test_orbit_members_stay_magic",
            "tests/test_residue.py::test_generated_equals_enumerated",
        ),
    ),
    # ROT180, FLIP_ROWS, ANTI_TRANSPOSE and permute: the corner class turned
    # a quarter, which the anti-diagonal reflection no longer fixes
    Mutant(
        "corner_class_quarter_turn",
        "residue.py",
        "(0, 1, m1, m1, 0, 1, 1, m1, 0)",
        "(1, m1, 0, m1, 0, 1, 0, 1, m1)",
        (
            "tests/test_residue.py::test_trivial_classes_fixed_by_reflections",
            "tests/test_acceptance.py::test_criterion_10_property_suites",
        ),
    ),
    # naive_center_enumeration: a center with fewer than four pairs reports
    # the constant grid e^2, ..., e^2 as a hit; its cells are not distinct
    Mutant(
        "scan_reports_the_constant_grid",
        "search.py",
        "return (False, 0, (), ())",
        "return (False, 0, ((e * e,) * 9,), ())",
        ("tests/test_search.py::test_completeness_against_naive_enumeration",),
    ),
    # primitive_subset's test: the prune reads primes = 1 (mod 4); it fails
    # on the prune's own assertion, since the oracle's side is empty
    Mutant(
        "prune_reads_split_primes",
        "search.py",
        "q % 4 == 3",
        "q % 4 == 1",
        ("tests/test_search.py::test_pruning_soundness_spot_check",),
    ),
    # parametric_magic: is_magic sums two cells of each line, so the lines of
    # a generic magic grid disagree
    Mutant(
        "is_magic_sums_two_cells",
        "intgrid.py",
        "sum(g.cells[i] for i in line)",
        "sum(g.cells[i] for i in line[:2])",
        ("tests/test_intgrid.py::test_parametric_magic_total_is_triple_center",),
    ),
    # verify compares the magic total with the top-left cell, not the center
    Mutant(
        "triple_center_reads_a_corner",
        "cli.py",
        "total == 3 * grid.center",
        "total == 3 * grid.cells[0]",
        ("tests/test_cli.py::test_verify_classical_magic[lo-shu]",),
    ),
    # verify classifies a class mod q that is not magic, which classify
    # refuses: Sallows' square is not magic mod 113
    Mutant(
        "residue_report_classifies_every_class",
        "cli.py",
        "    if total is not None:\n        entry[\"classification\"]",
        "    if True:\n        entry[\"classification\"]",
        (
            "tests/test_golden.py::test_structured_output_is_pinned[verify sallows.txt]",
            "tests/test_golden.py::test_structured_output_is_pinned"
            "[verify sallows.txt --format table]",
        ),
    ),
    # verify reports no all-even center line for a parity pattern
    Mutant(
        "parity_verdict_false",
        "cli.py",
        "entry[\"center_line_all_even\"] = True",
        "entry[\"center_line_all_even\"] = False",
        (
            "tests/test_cli.py::test_verify_even_center_reports_parity",
            "tests/test_golden.py::test_structured_output_is_pinned[verify tens.txt]",
            "tests/test_golden.py::test_structured_output_is_pinned"
            "[verify tens.txt --format table]",
        ),
    ),
    # klein_group_table: one bit of a parity pattern flipped, so the XOR of
    # two patterns is no pattern and the oracle's index lookup refuses it
    Mutant(
        "parity_pattern_bit_flipped",
        "intgrid.py",
        "    (1, 0, 1, 0, 0, 0, 1, 0, 1),\n",
        "    (1, 0, 1, 0, 0, 0, 1, 0, 0),\n",
        (
            "tests/test_intgrid.py::test_klein_group_table",
            "tests/test_acceptance.py::test_criterion_09_klein_four_group",
        ),
    ),
    # mod2_classify without its membership test, so a parity grid that is no
    # pattern reaches the index lookup and raises a bare ValueError
    Mutant(
        "parity_check_dropped",
        "intgrid.py",
        "    if bits not in PARITY_PATTERNS:\n"
        "        raise ResiduumError(\n"
        "            f\"parity grid {bits} is not one of the four patterns; input is not magic\"\n"
        "        )\n",
        "",
        (
            "tests/test_intgrid.py::test_mod2_classify_on_every_even_center_parity_grid",
            "tests/test_golden.py::test_structured_output_is_pinned[verify noparity.txt]",
            "tests/test_golden.py::test_structured_output_is_pinned"
            "[verify noparity.txt --format table]",
        ),
    ),
    # the center-root warning stops at e = 2, though nine distinct squares
    # rule out e = 3 and e = 4 too
    Mutant(
        "center_warning_cutoff_two",
        "intgrid.py",
        "if 9 * e * e < sum(k * k for k in range(9)):",
        "if e <= 2:",
        (
            "tests/test_intgrid.py::"
            "test_center_warning_holds_exactly_below_the_least_sum_of_nine_squares",
        ),
    ),
    # ResidueGrid's Euler criterion with exponent p - 1, which every unit
    # passes, so a non-square cell is accepted
    Mutant(
        "residue_grid_accepts_every_unit",
        "residue.py",
        "pow(v, (p - 1) // 2, p)",
        "pow(v, p - 1, p)",
        (
            "tests/test_residue.py::test_cells_must_be_squares",
            "tests/test_value_classes.py::test_value_class_contract[ResidueGrid]",
        ),
    ),
    # ResidueGrid without its primality proof, so it takes a composite p
    Mutant(
        "residue_grid_skips_the_proof",
        "residue.py",
        "        if not is_prime(p):\n            raise UsageError(f\"{p} is not prime\")\n"
        "        vals",
        "        vals",
        ("tests/test_residue.py::test_modulus_must_be_prime",),
    ),
    # UnitTriple without its primality proof, so it takes a composite p
    Mutant(
        "unit_triple_skips_the_proof",
        "residue.py",
        "        if not is_prime(p):\n            raise UsageError(f\"{p} is not prime\")\n"
        "        a, b, g",
        "        a, b, g",
        ("tests/test_residue.py::test_unit_triple_modulus_must_be_prime",),
    ),
    # gen_nontrivial without its p = 1 (mod 4) check, so a triple mod 11
    # meets ResidueGrid's refusal of -1 instead
    Mutant(
        "gen_nontrivial_skips_the_form_check",
        "residue.py",
        "    if p % 4 != 1:\n        raise UsageError(f\"no order-4 element mod {p}; "
        "need p = 1 (mod 4)\")\n    a2, b2, g2",
        "    a2, b2, g2",
        ("tests/test_residue.py::test_gen_nontrivial_needs_an_order_4_element",),
    ),
    # verify's class roots: the larger root of each cell mod q, not the
    # smaller
    Mutant(
        "verify_takes_the_larger_root",
        "cli.py",
        "min(r % q, -r % q)",
        "max(r % q, -r % q)",
        (
            "tests/test_golden.py::test_structured_output_is_pinned[verify sallows.txt]",
            "tests/test_golden.py::test_structured_output_is_pinned[verify root9999929.txt]",
            "tests/test_golden.py::test_structured_output_is_pinned[verify root10000121.txt]",
        ),
    ),
    # cli drops residuum.congrua from sys.modules, where the benchmark's
    # tracer looks each traced layer up
    Mutant(
        "cli_drops_a_traced_layer",
        "cli.py",
        "    sweep_congrua,\n)\n",
        "    sweep_congrua,\n)\nsys.modules.pop(__package__ + \".congrua\")\n",
        ("tests/test_bench_contract.py::test_bench_imports_load_every_traced_layer",),
    ),
    # a usage error carries exit 1, the code of an input the mathematics
    # refuses, not exit 2
    Mutant(
        "usage_error_exits_one",
        "errors.py",
        "class UsageError(ResiduumError):\n    exit_code = 2\n",
        "class UsageError(ResiduumError):\n    exit_code = 1\n",
        (
            "tests/test_golden.py::test_refusal_is_pinned[analyze 0 --format table]",
            "tests/test_golden.py::test_refusal_is_pinned[analyze 0 --format structured]",
            "tests/test_golden.py::test_refusal_is_pinned[table 4 --format table]",
            "tests/test_golden.py::test_refusal_is_pinned[table 4 --format structured]",
            "tests/test_golden.py::test_refusal_is_pinned[table 4 --format csv]",
            "tests/test_golden.py::test_refusal_is_pinned[construct 113 --sweep-max-m 1 --format table]",
            "tests/test_golden.py::test_refusal_is_pinned[construct 113 --sweep-max-m 1 --format structured]",
            "tests/test_golden.py::test_refusal_is_pinned[search 1 100 --workers 0 --format table]",
            "tests/test_golden.py::test_refusal_is_pinned[search 1 100 --workers 0 --format structured]",
            "tests/test_golden.py::test_refusal_is_pinned[verify root15.txt --format table]",
            "tests/test_golden.py::test_refusal_is_pinned[verify root15.txt --format structured]",
        ),
    ),
    # construct builds the O(p) root table before it refuses p = 3 (mod 4),
    # with the same message
    Mutant(
        "construct_builds_the_table_before_refusing",
        "cli.py",
        "    status = coverage_status(p)\n    root = make_context(p)\n",
        "    root = make_context(p)\n    status = coverage_status(p)\n",
        (
            "tests/test_golden.py::test_refusal_is_pinned[construct 1000003 --format table]",
            "tests/test_golden.py::test_refusal_is_pinned[construct 1000003 --format structured]",
            "tests/test_golden.py::test_refusal_is_pinned[construct 9999991 --format table]",
            "tests/test_golden.py::test_refusal_is_pinned[construct 9999991 --format structured]",
        ),
    ),
    # analyze builds p's root table before it checks --max-oracle-p, with
    # the same messages
    Mutant(
        "analyze_builds_the_table_before_its_oracle_check",
        "cli.py",
        "    if max_oracle_p < 0:\n",
        "    root = make_context(p)\n    if max_oracle_p < 0:\n",
        (
            "tests/test_golden.py::test_refusal_is_pinned[analyze 13 --max-oracle-p -1 --format table]",
            "tests/test_golden.py::test_refusal_is_pinned[analyze 13 --max-oracle-p -1 --format structured]",
            "tests/test_golden.py::test_refusal_is_pinned[analyze 13 --max-oracle-p 100001 --format table]",
            "tests/test_golden.py::test_refusal_is_pinned[analyze 13 --max-oracle-p 100001 --format structured]",
        ),
    ),
    # the progression sweep passes over usage errors, not the progressions
    # that miss F_p, so a composite p reads as no progression mapping in and
    # a miss ends `construct` for an uncovered prime
    Mutant(
        "sweep_misses_not_covered",
        "congrua.py",
        "        except NotCovered:\n            continue\n",
        "        except UsageError:\n            continue\n",
        (
            "tests/test_congrua.py::"
            "test_functions_that_take_p_refuse_a_modulus_without_a_table[composite]",
            "tests/test_golden.py::test_structured_output_is_pinned[construct 113]",
            "tests/test_golden.py::test_structured_output_is_pinned[construct 113 --format table]",
        ),
    ),
    # is_prime without its last round: a prime between psi_12 and psi_13,
    # and psi_12 itself, pass the 12 rounds and are refused as unproven
    Mutant(
        "miller_rabin_drops_the_last_round",
        "fp.py",
        "    (41, 3317044064679887385961981),\n",
        "",
        (
            "tests/test_fp.py::test_is_prime_proves_a_proth_prime_below_psi_13",
            "tests/test_fp.py::test_is_prime_rejects_the_strong_pseudoprimes"
            "[318665857834031151167461]",
        ),
    ),
    # pair_decompositions returns its pairs at e / scale, not at e
    Mutant(
        "pairs_drop_the_scale",
        "search.py",
        "(scale**2 * lo, scale**2 * (2 * half - lo))",
        "(lo, 2 * half - lo)",
        (
            "tests/test_search.py::test_pair_decompositions_match_isqrt_oracle",
            "tests/test_search.py::test_pair_decompositions_match_euclid_over_the_whole_range",
        ),
    ),
    # a prime both residue criteria reach is reported as reached by mod 20
    # alone
    Mutant(
        "coverage_both_read_as_mod20",
        "congrua.py",
        "        return \"covered_both\"\n",
        "        return \"covered_mod20\"\n",
        (
            "tests/test_congrua.py::test_coverage_examples",
            "tests/test_golden.py::test_structured_output_is_pinned[table 10000]",
            "tests/test_golden.py::test_structured_output_is_pinned[table 10000 --format csv]",
        ),
    ),
    # classify reads mid-edge zeros as corner zeros
    Mutant(
        "midedge_read_as_corner",
        "residue.py",
        "        return \"trivial_midedge\"\n",
        "        return \"trivial_corner\"\n",
        (
            "tests/test_residue.py::test_gen_trivial_midedge",
            "tests/test_golden.py::test_structured_output_is_pinned[verify midedge17.txt]",
            "tests/test_golden.py::test_structured_output_is_pinned"
            "[verify midedge17.txt --format table]",
        ),
    ),
    # analyze's oracle count read from the bound it checks, so it can never
    # exceed it, and classes_from_sum_equations runs under no command
    Mutant(
        "oracle_count_read_from_bound",
        "cli.py",
        "count = classes_from_sum_equations(p)",
        "count = results[\"count_bound\"] // 2",
        (
            "tests/test_cli.py::test_analyze_oracle_reports_a_bound_it_exceeds",
            "tests/test_reach.py::test_every_public_function_runs_under_a_golden_command",
        ),
    ),
)
