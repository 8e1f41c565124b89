"""Solving the adversarial game exactly on finite support.

With discrete laws everything is computable in closed form: the best
discriminator is a likelihood ratio, the value of the inner maximization is
-log 4 + 2 JSD(data, generator), and brute-force grid enumeration confirms
that the data law itself is the unique minimizer.

Run:  python3 demos/exact_oracle.py
"""

import json
import sys
from pathlib import Path

import numpy as np

from tvgan.distributions import DatasetPart, DiscreteDist, PointMassSlab, SpikeSlabNoise, discrete_convolve, mixture
from tvgan.divergence import jsd_discrete
from tvgan.oracle import (
    LOG4,
    VALUE_TOL,
    GameInstance,
    game_value,
    grid_minimize,
    mixture_chain_check,
    optimal_discriminator,
    optimal_value,
)


def law(support, probs):
    return DiscreteDist(np.asarray(support, dtype=np.float64), np.asarray(probs))


def main():
    p_data = law([0.0, 1.0, 2.0], [0.5, 0.3, 0.2])
    p_g = law([0.0, 1.0, 2.0], [1 / 3, 1 / 3, 1 / 3])
    inst = GameInstance([DatasetPart(p_data, 1.0, SpikeSlabNoise(0.0, PointMassSlab([1.0])))], p_g)

    print("== Best discriminator is the likelihood ratio a / (a + b) ==")
    support, d_star = optimal_discriminator(inst)
    for point, score in zip(support[:, 0], d_star):
        print(f"  D*({point:g}) = {score:.6f}")

    value = optimal_value(inst)
    noised = mixture([(discrete_convolve(part.spec, part.noise), part.alpha) for part in inst.parts])
    identity = -LOG4 + 2.0 * jsd_discrete(noised, p_g)
    print(f"inner-max value: {value:.12f}")
    print(f"-log4 + 2*JSD:   {identity:.12f}  (match to {abs(value - identity):.1e})")
    best = game_value(inst, d_star)
    print(f"value of D*:     {best:.12f}  (match to {abs(best - value):.1e})")
    if abs(best - value) > VALUE_TOL:
        print(f"the value of D* is more than {VALUE_TOL:g} from the inner-max value", file=sys.stderr)
        return 1

    print()
    print("== Brute-force enumeration finds p_g = p_data at the floor -log 4 ==")
    result = grid_minimize(p_data, grid_step=0.05)
    print(f"candidates visited: {result.candidates}")
    print(f"argmin probs:       {result.minimizer.probs.tolist()}")
    print(f"min value:          {result.min_value:.12f}  (-log 4 = {-LOG4:.12f})")

    print()
    print("== Chain of bounds for a noised two-part instance ==")
    instance_path = Path(__file__).parent / "configs" / "oracle_instance.json"
    noisy = GameInstance.from_dict(json.loads(instance_path.read_text()))
    report = mixture_chain_check(noisy, delta=0.5)
    width = max(len(ineq.name) for ineq in report.inequalities)
    for ineq in report.inequalities:
        print(f"  {ineq.name:<{width}}  {ineq.lhs:>10.6f} <= {ineq.rhs:<10.6f}  {ineq.holds}")
    print(f"all inequalities hold: {report.all_hold}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
