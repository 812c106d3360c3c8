package repro

import org.apache.spark.sql.SparkSession
import org.scalatest.funsuite.AnyFunSuite

/** Base for the suites that use Spark as an oracle or count its jobs: one
  * local-mode SparkSession for the whole run, created when the first such
  * suite is constructed. Graph views (`PropertyGraph.edges`/`vertices`) are
  * built over the active session, so they work in any suite order. Graphs
  * and engine runs need no session.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM (the image exports it, or derives ~75% of the cgroup
  * limit).
  */
trait SparkSpec extends AnyFunSuite {
  val spark: SparkSession = SparkSpec.shared
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = SparkSession.builder()
      .master("local[*]")
      .appName("repro")
      // Test inputs are tiny: eight shuffle partitions keep each oracle
      // query's shuffles short.
      .config("spark.sql.shuffle.partitions", "8")
      .getOrCreate()
    // One line in test output that tells whether the driver heap came from
    // SPARK_DRIVER_MEM, and whether the engines' edge passes, one thread per
    // available processor, run on as many threads as `local[*]` counts.
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism} " +
      s"availableProcessors=${Runtime.getRuntime.availableProcessors}"
    )
    s
  }
}
