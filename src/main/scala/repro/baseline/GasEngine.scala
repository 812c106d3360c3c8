package repro.baseline

import repro.core.{Engine, RunResult, Schedule, VertexProgram}
import repro.graph.PropertyGraph

/** Synchronous gather-apply-scatter baselines standing in for the paper's
  * two comparison systems (Table 5): PowerG (`dense = true`) and PowerL
  * (`dense = false`), the [[Schedule.PowerG]] and [[Schedule.PowerL]]
  * schedules of [[Engine]]. Gather runs through the same edge blocks as the
  * SLFE engine, so computation counts are directly comparable; scatter edge
  * counts are added to the per-iteration computation tally.
  */
object GasEngine {

  /** Min/max applications: iterate to the Bellman-Ford fixpoint. */
  def runMinMax(g: PropertyGraph, prog: VertexProgram, dense: Boolean,
                maxIters: Int = Engine.MaxIters): RunResult =
    Engine.run(g, prog, schedule(dense), maxIters)

  /** Arithmetic applications for `iters` iterations; with `earlyStop` the
    * run ends once no vertex changes.
    */
  def runArith(g: PropertyGraph, prog: VertexProgram, dense: Boolean,
               iters: Int = 30, earlyStop: Boolean = false): RunResult =
    Engine.run(g, prog, schedule(dense), iters, earlyStop)

  private def schedule(dense: Boolean): Schedule = if (dense) Schedule.PowerG else Schedule.PowerL
}
