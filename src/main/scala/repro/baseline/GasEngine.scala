package repro.baseline

import repro.core.{Engine, RunResult, Schedule, VertexProgram}
import repro.graph.PropertyGraph

/** Kept only because perfbench's warm-up calls it; every other caller
  * passes a [[Schedule]] to [[Engine.run]].
  */
object GasEngine {

  /** [[Engine.run]] with [[Schedule.PowerG]] (`dense`) or [[Schedule.PowerL]]. */
  def runArith(g: PropertyGraph, prog: VertexProgram, dense: Boolean, iters: Int): RunResult =
    Engine.run(g, prog, if (dense) Schedule.PowerG else Schedule.PowerL, iters)
}
