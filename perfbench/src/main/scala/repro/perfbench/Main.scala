package repro.perfbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}
import org.apache.spark.sql.SparkSession
import repro.bench.Harness

/** Benchmark entry point (launched by perfbench/run.py):
  *
  * {{{
  * Main --workload NAME --seed N --seconds S --trace 0|1 [--record FILE]
  * Main --smoke [--seed N]
  * }}}
  *
  * A run prints one JSON object as the last line of standard output: the
  * end-to-end metrics with `--trace 0`, the per-layer metrics with
  * `--trace 1`. `--record` also writes every cell's counts and seconds to
  * FILE. `--smoke` runs every workload's code path once, traced, on a tiny
  * graph, and prints both lines for each. Everything else goes to standard error.
  */
object Main {

  private final case class Opts(workload: Option[String] = None, seed: Long = 0L,
                                seconds: Double = 10.0, trace: Boolean = false,
                                record: Option[String] = None, smoke: Boolean = false)

  def main(argv: Array[String]): Unit = {
    val opts = parse(argv.toList, Opts()).getOrElse(fail(
      "usage: --workload NAME --seed N --seconds S --trace 0|1 [--record FILE] | --smoke [--seed N]"))
    val runs =
      if (opts.smoke) Workloads.all.map(wl => (wl.tiny, true))
      else {
        val name = opts.workload.getOrElse(fail("--workload is required"))
        val wl = Workloads.byName(name).getOrElse(fail(
          s"unknown workload '$name' (known: ${Workloads.all.map(_.name).mkString(", ")})"))
        Seq((wl, opts.trace))
      }
    val spark = session()
    Bench.warmUp(spark)
    try runs.foreach { case (wl, trace) =>
      val seeded = wl.withSeed(opts.seed)
      val out = Bench.run(spark, seeded, if (opts.smoke) 0.0 else opts.seconds, trace,
        if (opts.smoke) 1 else Bench.SetupReps)
      report(seeded, out)
      opts.record.foreach(f => write(f, record(seeded, opts.seed, trace, out)))
      if (opts.smoke) println(result(out, out.endToEnd))
      println(result(out, if (trace) out.perLayer else out.endToEnd))
    } finally spark.stop()
  }

  private def fail(reason: String): Nothing = {
    Console.err.println(s"perfbench: $reason")
    sys.exit(2)
  }

  private def parse(args: List[String], o: Opts): Option[Opts] = args match {
    case Nil => Some(o)
    case "--workload" :: v :: rest => parse(rest, o.copy(workload = Some(v)))
    case "--seed" :: v :: rest => v.toLongOption.flatMap(s => parse(rest, o.copy(seed = s)))
    case "--seconds" :: v :: rest => v.toDoubleOption.filter(_ >= 0).flatMap(s => parse(rest, o.copy(seconds = s)))
    case "--trace" :: ("0" | "1") :: rest => parse(rest, o.copy(trace = args(1) == "1"))
    case "--record" :: v :: rest => parse(rest, o.copy(record = Some(v)))
    case "--smoke" :: rest => parse(rest, o.copy(smoke = true))
    case _ => None
  }

  /** Local-mode Spark with the bench settings of the table suites: 8
    * shuffle partitions and broadcast joins only where the plan asks.
    */
  private def session(): SparkSession = SparkSession.builder
    .master(s"local[${Runtime.getRuntime.availableProcessors}]")
    .appName("slfe-perfbench")
    .config("spark.sql.shuffle.partitions", "8")
    .config("spark.sql.autoBroadcastJoinThreshold", "-1")
    .config("spark.ui.enabled", "false")
    .config("spark.driver.host", "127.0.0.1")
    .getOrCreate()

  /** Human-readable per-cell lines on standard error. */
  private def report(wl: Workload, out: Outcome): Unit = {
    Console.err.println(s"== ${wl.name} (${wl.graphs.map(g => s"${g.name} seed ${g.seed}").mkString(", ")}) ==")
    out.cells.foreach { c =>
      val r = c.result
      Console.err.println(f"pass ${c.pass} ${c.graph}%-8s ${c.app}%-4s ${c.system}%-6s ${c.seconds}%8.3fs " +
        f"iters=${r.fold(0)(_.iterations)}%3d comps=${r.fold(0L)(_.totalComputations)}%9d" +
        c.error.fold("")(e => s"  FAILED: $e"))
    }
    (out.endToEnd ++ out.perLayer).foreach(m => Console.err.println(f"${m.name}%-26s ${m.value}%14.6f ${m.unit}"))
  }

  private def result(out: Outcome, metrics: Seq[Metric]): String = {
    val ms = metrics.map(m => s"${str(m.name)}: {\"value\": ${num(m.value)}, \"unit\": ${str(m.unit)}}")
    s"""{"correct": ${out.failed == 0}, "attempted": ${out.attempted}, "failed": ${out.failed}, """ +
      s""""metrics": {${ms.mkString(", ")}}}"""
  }

  /** The run record: every cell's counts, so runs can be diffed cell by cell. */
  private def record(wl: Workload, seed: Long, trace: Boolean, out: Outcome): String = {
    val cells = out.cells.map { c =>
      val r = c.result
      s"""    {"pass": ${c.pass}, "graph": ${str(c.graph)}, "app": ${str(c.app)}, "system": ${str(c.system)}, """ +
        s""""ok": ${c.ok}, "seconds": ${num(c.seconds)}, "iterations": ${r.fold(0)(_.iterations)}, """ +
        s""""edge_comps": ${r.fold(0L)(_.totalComputations)}, "vertex_comps": ${r.fold(0L)(_.totalVertexComputations)}, """ +
        s""""updates": ${r.fold(0L)(_.totalUpdates)}, "error": ${c.error.fold("null")(str)}}"""
    }
    val metrics = (out.endToEnd ++ out.perLayer).map(m => s"""    ${str(m.name)}: ${num(m.value)}""")
    s"""{
       |  "workload": ${str(wl.name)}, "seed": $seed, "trace": $trace, "arith_eps": ${num(Harness.ArithEps)},
       |  "graphs": [${wl.graphs.map(g => s"""{"name": ${str(g.name)}, "scale": ${g.scale}, "edges": ${g.targetEdges}, "rmat_seed": ${g.seed}}""").mkString(", ")}],
       |  "metrics": {
       |${metrics.mkString(",\n")}
       |  },
       |  "cells": [
       |${cells.mkString(",\n")}
       |  ]
       |}
       |""".stripMargin
  }

  private def write(file: String, text: String): Unit = {
    val p = Paths.get(file)
    Option(p.getParent).foreach(Files.createDirectories(_))
    Files.write(p, text.getBytes(StandardCharsets.UTF_8))
  }

  private def num(d: Double): String = {
    require(!d.isNaN && !d.isInfinite, s"metric value $d is not a finite number")
    if (d == math.rint(d) && math.abs(d) < 1e15) d.toLong.toString else d.toString
  }

  private def str(s: String): String =
    "\"" + s.flatMap {
      case '"' => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c => c.toString
    } + "\""
}
