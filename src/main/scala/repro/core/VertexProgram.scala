package repro.core

/** The aggregation-function class of a graph application (paper Table 1):
  * comparison (min/max) apps admit "start late", arithmetic (sum) apps
  * admit "finish early". `zero` is the identity of `combine`.
  */
sealed trait AggKind {
  def zero: Double
  def combine(acc: Double, m: Double): Double
}
object AggKind {
  case object Min extends AggKind {
    def zero: Double = Double.PositiveInfinity
    def combine(acc: Double, m: Double): Double = if (m < acc) m else acc
  }
  case object Max extends AggKind {
    def zero: Double = Double.NegativeInfinity
    def combine(acc: Double, m: Double): Double = if (m > acc) m else acc
  }
  case object Sum extends AggKind {
    def zero: Double = 0.0
    def combine(acc: Double, m: Double): Double = acc + m
  }
}

/** The per-edge message of a vertex program, evaluated by the chunk tasks
  * over the edge blocks. A function literal `(srcVal, w, deg) => ...`
  * converts to it; its primitive signature keeps the edge loops unboxed.
  * Tasks of concurrent calls may run it at once, so it must be pure.
  */
trait Message {
  def apply(srcVal: Double, weight: Double, srcOutDeg: Long): Double
}

/** A user-defined vertex program, the SLFE analogue of the paper's
  * (pushFunc, pullFunc, vertexFunc) triple (Table 3, Alg. 4/5).
  *
  * `msg` is evaluated per edge over the partitioned edge blocks — the
  * heavy, parallel part. `applyFn`/`improves` are the per-vertex
  * master-side apply step, plain Scala over the aggregated message, like a
  * Pregel master compute.
  *
  * The aggregation alone fixes the class (paper Table 1): Sum programs
  * finish early, and a vertex they compute without messages aggregates 0;
  * min/max programs start late.
  *
  * @param agg       aggregation combining all messages into a vertex
  * @param initValue initial vertex property
  * @param initActive initially active vertices (e.g. the SSSP root)
  * @param msg       per-edge message from (srcVal, weight, srcOutDeg)
  * @param applyFn   (aggregatedMsg, oldValue) => candidate new value
  * @param improves  (candidate, oldValue) => does this change the vertex
  *                  (min/max: strict improvement; arith: |delta| > eps)
  */
final case class VertexProgram(
    name: String,
    agg: AggKind,
    initValue: Long => Double,
    initActive: Long => Boolean,
    msg: Message,
    applyFn: (Double, Double) => Double,
    improves: (Double, Double) => Boolean,
) {
  /** Arithmetic (finish-early), not min/max (start-late). */
  def arith: Boolean = agg == AggKind.Sum
}
