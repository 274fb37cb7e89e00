package perfbench

import repro.core.Hit
import repro.baselines.BruteForce

import java.io.{File, PrintWriter}
import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer

/** Entry point of the LES³ benchmark. It drives the library's public API
  * from outside the program, as a closed loop with one client: every call
  * waits for the previous one. Usage:
  *
  * {{{
  *   perfbench.Bench --workload <name> --seed <n> --seconds <s> --trace <0|1> --out <dir>
  * }}}
  *
  * It prints a human-readable report and, as its last line, `RESULT <json>`
  * holding every metric it measured; `perfbench/run.py` picks the declared
  * metrics out of that line.
  */
object Bench {

  final case class Args(workload: String, seed: Long, seconds: Int, trace: Boolean, out: File)

  def main(argv: Array[String]): Unit = {
    val opts = argv.grouped(2).collect { case Array(k, v) => k.stripPrefix("--") -> v }.toMap
    val args = Args(opts("workload"), opts("seed").toLong, opts("seconds").toInt,
                    opts.getOrElse("trace", "0") == "1", new File(opts.getOrElse("out", ".bench_out")))
    val report = new Report(args)
    args.workload match {
      case "kosarak-read" => InMemoryBench.run(InMemoryBench.kosarakRead, args, report)
      case "fs-mixed"     => InMemoryBench.run(InMemoryBench.fsMixed, args, report)
      case "pmc-spark"    => SparkBench.run(args, report)
      case other          => throw new IllegalArgumentException(s"unknown workload '$other'")
    }
    report.finish()
  }

  /** Queries drawn for `pe_knn10`. */
  val PeQueries = 2000
  /** Builds per run; `setup_s` is their median. */
  val SetupReps = 3
  /** Siamese restarts per L2P model (the light config). */
  val L2PRestarts = 1

  def ms(fromNs: Long, toNs: Long): Double = (toNs - fromNs) / 1e6

  /** 64-bit FNV-1a over the grouping assignment, the number of trained
    * models and the index size: two builds with equal fingerprints made the
    * same grouping and the same index.
    */
  def fingerprint(assignment: Array[Int], models: Int, indexBytes: Long): String = {
    var h = 0xcbf29ce484222325L
    def mix(x: Long): Unit = { h = (h ^ x) * 0x100000001b3L }
    assignment.foreach(a => mix(a.toLong))
    mix(models.toLong)
    mix(indexBytes)
    f"$h%016x"
  }

  /** Median, e.g. of several set-up times or of per-slice figures. */
  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.length % 2 == 1) s(s.length / 2) else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
  }

  def heapUsedMb(): Double = {
    System.gc()
    val mem = java.lang.management.ManagementFactory.getMemoryMXBean.getHeapMemoryUsage
    mem.getUsed / 1048576.0
  }
}

/** Latency samples of one operation kind, in nanoseconds. */
final class Samples {
  private var buf = new Array[Long](1024)
  var n = 0
  def add(ns: Long): Unit = {
    if (n == buf.length) buf = java.util.Arrays.copyOf(buf, 2 * n)
    buf(n) = ns; n += 1
  }
  def totalNs: Long = { var s = 0L; var i = 0; while (i < n) { s += buf(i); i += 1 }; s }

  /** Nearest-rank percentile in microseconds. */
  def pctUs(p: Double): Double = {
    require(n > 0, "no samples")
    val s = java.util.Arrays.copyOf(buf, n)
    java.util.Arrays.sort(s)
    s(math.max(0, math.ceil(p / 100.0 * n).toInt - 1)) / 1e3
  }

  /** The highest whole percentile, at most 99, with at least ten samples
    * beyond it; below 20 samples there is none.
    */
  def tailPct: Option[Int] =
    if (n < 20) None else Some(math.min(99, math.floor(100.0 * (1.0 - 10.0 / n)).toInt))
}

/** The expected answers for one query, from one brute-force scan. Range
  * hits are kept down to the lowest δ the workload asks for, sorted by set
  * id; `topSims` holds the k best similarities in descending order.
  */
final class Expect(val hits: Array[Hit], val topSims: Array[Double])

object Oracle {
  val K = 10
  val Deltas: Seq[Double] = Seq(0.9, 0.5)

  /** One [[BruteForce]] scan (range at δ = 0 returns every set with its
    * similarity) serves the range checks at every δ and the kNN check.
    * `sidOffset` shifts ids when `brute` covers a slice of the database.
    */
  def scan(brute: BruteForce, q: Array[Int], sidOffset: Int = 0): Expect = {
    val all = brute.range(q, 0.0).hits
    val hits = all.iterator.filter(_.sim >= Deltas.min).map(h => Hit(h.sid + sidOffset, h.sim)).toArray
    val sims = all.iterator.map(_.sim).toArray
    java.util.Arrays.sort(sims)
    new Expect(hits, sims.takeRight(K).reverse)
  }

  /** The expectation over a database made of `a` followed by `b`. */
  def merge(a: Expect, b: Expect): Expect =
    if (b.topSims.isEmpty) a
    else new Expect(a.hits ++ b.hits, (a.topSims ++ b.topSims).sorted(Ordering[Double].reverse).take(K))

  /** None when `got` equals the exact range answer at `delta` as a set of
    * (sid, sim) pairs; otherwise a description of the mismatch.
    */
  def checkRange(e: Expect, delta: Double, got: Iterable[Hit]): Option[String] = {
    val want = e.hits.filter(_.sim >= delta).sortBy(_.sid).toSeq
    val have = got.toSeq.sortBy(_.sid)
    if (want == have) None
    else Some(s"range delta=$delta: ${have.length} hits, expected ${want.length}" +
              s" (first difference ${want.diff(have).headOption.orElse(have.diff(want).headOption)})")
  }

  /** None when the kNN similarities equal the exact top-k as a multiset,
    * so ties at the kth similarity may be broken either way.
    */
  def checkKnn(e: Expect, got: Iterable[Hit]): Option[String] = {
    val have = got.iterator.map(_.sim).toSeq.sorted(Ordering[Double].reverse)
    val want = e.topSims.toSeq
    if (want == have) None else Some(s"knn k=$K: sims ${have.take(3)}..., expected ${want.take(3)}...")
  }
}

/** One span of a traced run: a call or a replay, `count` its work units. */
final case class Span(op: Long, name: String, startNs: Long, endNs: Long, parent: String, count: Long)

/** Collects the metrics and the human-readable lines of one run, plus the
  * spans of a traced run, and writes them out when the run ends.
  */
final class Report(args: Bench.Args) {
  private val metrics = mutable.LinkedHashMap.empty[String, (Double, String)]
  private val notes = ArrayBuffer.empty[String]
  private val problems = ArrayBuffer.empty[String]
  var attempted = 0L
  var failed = 0L

  def put(name: String, value: Double, unit: String): Unit = {
    require(!value.isNaN && !value.isInfinite, s"metric $name is $value")
    metrics(name) = (value, unit)
  }
  def note(line: String): Unit = { notes += line; println(line) }

  /** A wrong or failed operation: counted, and printed (the first few). */
  def fail(what: String): Unit = {
    failed += 1
    if (failed <= 20) note(s"FAIL: $what")
  }

  /** A defect that is not one operation, such as a non-deterministic build. */
  def problem(what: String): Unit = { problems += what; note(s"PROBLEM: $what") }

  // Spans of the traced run: one id per operation, shared by its spans.
  val spans = ArrayBuffer.empty[Span]
  def span(op: Long, name: String, startNs: Long, endNs: Long, parent: String = "", count: Long = 0): Unit =
    spans += Span(op, name, startNs, endNs, parent, count)

  def finish(): Unit = {
    val correct = failed == 0 && problems.isEmpty
    note(f"fail_frac = ${if (attempted == 0) 1.0 else failed.toDouble / attempted}%.6f (failed $failed of $attempted ops)")
    for ((k, (v, u)) <- metrics) println(f"  $k%-32s $v%16.4f $u")
    args.out.mkdirs()
    val base = s"${args.workload}-seed${args.seed}-trace${if (args.trace) 1 else 0}"
    val json = resultJson(correct)
    val w = new PrintWriter(new File(args.out, s"$base.json"), "UTF-8")
    try w.println(json) finally w.close()
    if (spans.nonEmpty) {
      val t = new PrintWriter(new File(args.out, s"$base.spans.tsv"), "UTF-8")
      try {
        t.println("op\tname\tstart_ns\tend_ns\tparent\tcount")
        spans.foreach(s => t.println(s"${s.op}\t${s.name}\t${s.startNs}\t${s.endNs}\t${s.parent}\t${s.count}"))
      } finally t.close()
    }
    println("RESULT " + json)
  }

  private def resultJson(correct: Boolean): String = {
    def str(s: String) = "\"" + s.replace("\\", "\\\\").replace("\"", "\\\"") + "\""
    val ms = metrics.map { case (k, (v, u)) => s"${str(k)}: {\"value\": $v, \"unit\": ${str(u)}}" }
    s"{\"correct\": $correct, \"attempted\": $attempted, \"failed\": $failed, " +
      s"\"metrics\": {${ms.mkString(", ")}}, \"notes\": [${notes.map(str).mkString(", ")}]}"
  }
}

/** The query kinds every workload runs, and the per-layer split of their
  * traced operations.
  */
object Layers {
  val Kinds: Array[String] = Array("range09", "range05", "knn10")
  val KindDelta: Array[Double] = Array(0.9, 0.5, Double.NaN)

  /** Sums over the traced operations of one kind. `opNs` is the engine
    * call; `ubNs` and `simNs` are the replayed UB pass and verification.
    */
  final class Acc {
    var n = 0L; var opNs = 0L; var ubNs = 0L; var simNs = 0L
    var cands = 0L; var groups = 0L; var hits = 0L; var probes = 0L
  }

  /** Per-query means per kind; self time is what the call spent outside
    * the UB pass and verification: ordering, top-k, buffers, and for a
    * Spark batch its planning and data movement.
    */
  def put(accs: Array[Acc], report: Report): Unit = {
    var simNs = 0L; var cands = 0L; var probes = 0L; var n = 0L
    for ((kind, a) <- Kinds.zip(accs) if a.n > 0) {
      report.put(s"tgm.ub_pass_us.$kind", a.ubNs / 1e3 / a.n, "us")
      report.put(s"core.candidates_per_q.$kind", a.cands.toDouble / a.n, "count")
      report.put(s"core.groups_read_per_q.$kind", a.groups.toDouble / a.n, "count")
      report.put(s"core.hit_ratio.$kind", if (a.cands == 0) 0.0 else a.hits.toDouble / a.cands, "ratio")
      report.put(s"core.self_us.$kind", (a.opNs - a.ubNs - a.simNs) / 1e3 / a.n, "us")
      simNs += a.simNs; cands += a.cands; probes += a.probes; n += a.n
    }
    report.put("tgm.ub_probes_per_q", probes.toDouble / math.max(1L, n), "count")
    report.put("setops.sim_ns", simNs.toDouble / math.max(1L, cands), "ns")
  }
}
