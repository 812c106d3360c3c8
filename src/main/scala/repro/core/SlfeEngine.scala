package repro.core

import repro.graph.PropertyGraph

/** The SLFE engine (paper §3.3–3.5) and, with `rrg = None`, the Gemini-like
  * baseline it is built on: the [[Schedule.Slfe]] and [[Schedule.Gemini]]
  * schedules of [[Engine]].
  *
  * - `edgeProcMinMax` is the paper's `edgeProc(pushFunc, pullFunc,
  *   activeVerts, Ruler)` API: a min/max application to its fixpoint.
  * - `edgeProcArith` is `edgeProc(pushFunc, pullFunc)` + `vertexUpdate`: an
  *   arithmetic application for `iters` pull iterations (the paper reports
  *   per-iteration cost for PR/TR); with `earlyStop` the run ends once no
  *   computed vertex changes.
  */
object SlfeEngine {

  def edgeProcMinMax(g: PropertyGraph, prog: VertexProgram, rrg: Option[RRGuidance],
                     maxIters: Int = Engine.MaxIters): RunResult =
    Engine.run(g, prog, schedule(rrg), maxIters)

  def edgeProcArith(g: PropertyGraph, prog: VertexProgram, rrg: Option[RRGuidance],
                    iters: Int = 30, earlyStop: Boolean = false): RunResult =
    Engine.run(g, prog, schedule(rrg), iters, earlyStop)

  private def schedule(rrg: Option[RRGuidance]): Schedule = rrg.fold[Schedule](Schedule.Gemini)(Schedule.Slfe)
}
