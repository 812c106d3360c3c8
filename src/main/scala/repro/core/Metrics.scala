package repro.core

/** Per-iteration counters for one engine run.
  *
  * `edgeComputations` counts edges fed through an aggregation this iteration
  * (the paper's "number of computations", Fig. 9); for the PowerG baseline
  * it also includes its modelled change-blind scatter. `updates` counts
  * vertex property writes that changed the value (paper Table 2). `nanos`
  * is the iteration's wall time and `edgeNanos` the part of it spent in the
  * edge pass ([[EdgeOps]]); the rest is the driver's own work.
  */
final case class IterationStat(
    iter: Int,
    mode: String,
    computedVertices: Long,
    edgeComputations: Long,
    updates: Long,
    nanos: Long,
    edgeNanos: Long,
)

/** The outcome of one (system, app, graph) execution. The engines return
  * `values` as a read-only view over one dense array in the graph's vertex
  * order ([[repro.graph.VertexMap]]).
  */
final case class RunResult(
    system: String,
    app: String,
    graph: String,
    values: Map[Long, Double],
    stats: Seq[IterationStat],
    wallNanos: Long,
) {
  def iterations: Int = stats.size
  def totalComputations: Long = stats.iterator.map(_.edgeComputations).sum
  def totalUpdates: Long = stats.iterator.map(_.updates).sum
  def totalVertexComputations: Long = stats.iterator.map(_.computedVertices).sum
  def updatesPerVertex(numVertices: Long): Double =
    if (numVertices == 0) 0.0 else totalUpdates.toDouble / numVertices
  /** Paper Table 2's "updates/computations per vertex" — how many times an
    * average vertex is gathered+applied over the run; 1 is the no-redundancy
    * ideal.
    */
  def computationsPerVertex(numVertices: Long): Double =
    if (numVertices == 0) 0.0 else totalVertexComputations.toDouble / numVertices
  def seconds: Double = wallNanos / 1e9
}
