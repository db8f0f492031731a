"""
Verifying stability bounds against a trajectory
===============================================

The full pipeline in library form: certify the gain digraph, derive
closed-loop gains, simulate the dynamics, and confirm the predicted
transient and asymptotic bounds on the computed solution.  This is what
``smallgain verify`` does under the hood.
"""

from smallgain import (
    HistoryFunction,
    check_ag,
    check_cyclic_small_gain,
    check_gas,
    check_gs,
    closed_loop_input_gains,
    global_gs_sigma,
    ring_gains,
    ring_system,
    simulate,
)

# Step 1: the small-gain certificate.  Every simple cycle's composed
# gain must stay below the identity; without this the closed-loop gains
# would not exist and simulation results would prove nothing.
g = ring_gains()
cert = check_cyclic_small_gain(g)
print(f"small-gain condition: {cert.status.value}")
for rep in cert.reports:
    print(f"  cycle {rep.cycle}: margin {rep.margin:.4f}")

# Step 2: closed-loop gains by node elimination.
closed = closed_loop_input_gains(g)
print(f"\nelimination order: {closed.order}")
for i in sorted(closed.sigmas):
    print(f"  sigma_{i} = {closed.sigmas[i].to_expr()}")

# Step 3: simulate the unforced ring from constant unit histories.
system = ring_system(delta=1.0)
hist = [HistoryFunction.constant([1.0]) for _ in range(3)]
traj = simulate(system, hist, None, T=20.0, h=0.01)

# Step 4: check the bounds.  Each check reads the history and the inputs
# from the trajectory itself.  GS holds the whole trajectory below the
# transient envelope; AG compares tail limsups against the input gains
# (zero here, the system is unforced); GAS additionally demands the
# tail shrink below an explicit epsilon.
gs = check_gs(traj, g, closed)
ag = check_ag(traj, closed)
gas = check_gas(traj, global_gs_sigma(g, closed), eps=1e-3)

for rep in (gs, ag, gas):
    print(f"\n{rep.summary()}")
print(f"\nGS combined initial constant: {gs.details['c']}")
print(f"GS per-node bounds: {gs.node_bounds}")
print(f"AG tail estimates settled: {ag.details['settled']}")
print(f"GAS tail supremum: {gas.limsups['all'].value:.2e}")
