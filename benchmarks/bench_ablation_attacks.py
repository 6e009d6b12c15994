"""ABL — ablation benchmarks beyond the paper's figures.

Three ablations called out in DESIGN.md:

1. attack sweep: BOX-GEOM vs plain mean across the attack zoo
   (crash, random vector, magnitude, opposite-of-mean, label flip),
2. sub-round sweep: how the number of agreement sub-rounds affects the
   final gradient disagreement in the decentralized setting,
3. subset-budget sweep: accuracy impact of sampling the ``(n-t)``-subset
   enumeration in BOX-GEOM (the ``max_subsets`` knob).
"""

from __future__ import annotations

from _harness import centralized_config, decentralized_config, print_report, scaled, summary_table

from repro.learning.experiment import run_experiment

ATTACKS = ("crash", "random-vector", "magnitude", "opposite-mean", "label-flip")


def test_ablation_attack_sweep(benchmark):
    """BOX-GEOM vs plain mean across the attack zoo (centralized)."""

    def run():
        histories = {}
        for attack in ATTACKS:
            for rule in ("box-geom", "mean"):
                config = centralized_config(
                    aggregation=rule, attack=attack, rounds=scaled(10, 100)
                )
                histories[f"{attack}/{rule}"] = run_experiment(config)
        return histories

    histories = benchmark.pedantic(run, rounds=1, iterations=1)
    print_report("ABL-attacks", "BOX-GEOM vs mean across attacks", summary_table(histories))
    assert len(histories) == len(ATTACKS) * 2


def test_ablation_subround_schedule(benchmark):
    """Gradient disagreement vs number of agreement sub-rounds."""

    def run():
        results = {}
        for subrounds in (1, 2, 4):
            config = decentralized_config(rounds=scaled(3, 20))
            from repro.learning.experiment import build_experiment
            from repro.agreement import make_algorithm
            from repro.learning.decentralized import DecentralizedTrainer
            from repro.nn.optimizers import SGD

            built = build_experiment(config)
            algorithm = make_algorithm(
                "box-geom", config.num_clients, config.tolerance,
                **config.aggregation_kwargs,
            )
            trainer = DecentralizedTrainer(
                built.clients,
                algorithm,
                built.test_data,
                optimizer=SGD(config.learning_rate, total_rounds=config.rounds),
                subround_schedule=lambda _iteration, s=subrounds: s,
                seed=0,
            )
            history = trainer.train(config.rounds)
            results[subrounds] = history.records[-1].gradient_disagreement
        return results

    disagreements = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [f"sub-rounds={k}: final gradient disagreement = {v:.3e}" for k, v in disagreements.items()]
    print_report("ABL-subrounds", "Agreement sub-round sweep (BOX-GEOM, decentralized)", "\n".join(lines))
    # More sub-rounds must not increase the disagreement.
    values = [disagreements[k] for k in sorted(disagreements)]
    assert values[-1] <= values[0] + 1e-9


def test_ablation_subset_budget(benchmark):
    """BOX-GEOM accuracy as the subset-enumeration budget shrinks."""

    def run():
        histories = {}
        for budget in (None, 12, 4):
            label = "exhaustive" if budget is None else f"budget={budget}"
            kwargs = {} if budget is None else {"max_subsets": budget}
            config = centralized_config(
                aggregation="box-geom", rounds=scaled(10, 100), aggregation_kwargs=kwargs
            )
            histories[label] = run_experiment(config)
        return histories

    histories = benchmark.pedantic(run, rounds=1, iterations=1)
    print_report("ABL-subsets", "BOX-GEOM subset sampling budget sweep", summary_table(histories))
    assert len(histories) == 3
