package repro.core

import repro.graph.PropertyGraph

/** Kept only because perfbench's warm-up calls it; every other caller
  * passes a [[Schedule]] to [[Engine.run]].
  */
object SlfeEngine {

  /** [[Engine.run]] with [[Schedule.Gemini]] (`rrg = None`) or [[Schedule.Slfe]]. */
  def edgeProcArith(g: PropertyGraph, prog: VertexProgram, rrg: Option[RRGuidance], iters: Int): RunResult =
    Engine.run(g, prog, rrg.fold[Schedule](Schedule.Gemini)(Schedule.Slfe), iters)
}
