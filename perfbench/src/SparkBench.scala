package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.baselines.BruteForce
import repro.core.{Grouping, Hit, SearchStats, SetOps, SparkSearch, TGM}
import repro.data.SetGen
import repro.embed.PTREmbedder
import repro.exp.Harness
import repro.partition.L2P

import Layers.{KindDelta, Kinds}

import java.io.File
import scala.collection.immutable.ArraySeq
import scala.collection.mutable.ArrayBuffer
import scala.util.Random

/** The `pmc-spark` workload: the DataFrame path of [[SparkSearch]] on a
  * PMC-lite database. L2P trains on a driver-side sample, the broadcast
  * model assigns every set to a group, and the TGM is built by a DataFrame
  * aggregation. Queries run as batches; each batch is one call.
  */
object SparkBench {

  val Profile: SetGen.Profile = SetGen.pmcLite.copy(nSets = 50000)
  val SampleSize = 10000
  val Groups = 128
  val Pairs = 3000
  val Pool = 200
  val Batch = 20
  val WarmupBatches = 2
  /** `SparkSearch.knnSearch`'s default phase-1 coverage factor. */
  val KnnSlack = 3

  final case class Built(l2p: L2P.Result, grouped: DataFrame, tgm: TGM,
                         embedMs: Double, l2pMs: Double, assignMs: Double, tgmMs: Double, totalS: Double)

  def run(args: Bench.Args, report: Report): Unit = {
    val local = new File(args.out, "spark-local").getAbsoluteFile
    // Two task threads leave cores for the driver, GC and JIT threads, so
    // batch times move less with load from outside the program.
    val spark = SparkSession.builder()
      .master("local[2]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", local.getPath)
      .config("spark.sql.warehouse.dir", new File(local, "warehouse").getPath)
      .config("spark.sql.shuffle.partitions", "8")
      .getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    try runWith(spark, args, report) finally spark.stop()
  }

  private def runWith(spark: SparkSession, args: Bench.Args, report: Report): Unit = {
    import spark.implicits._
    // The database and the L2P training sample are fixed; the seed draws
    // the queries.
    val p = Profile
    val dbArr = SetGen.local(p) // the same sets as the DataFrame; used by the oracle
    val db = ArraySeq.unsafeWrapArray(dbArr)
    val brute = new BruteForce(db)
    val data = SetGen.toDF(spark, p).cache()
    data.count()
    val sampleRnd = new Random(p.seed)
    val sample = ArraySeq.fill(SampleSize)(db(sampleRnd.nextInt(db.length)))
    val rnd = new Random(args.seed * 7919L + 29)
    report.note(s"workload pmc-spark: |D|=${db.length} |T|=${p.nTokens} avg=${p.avgSize} sample=$SampleSize " +
      s"groups=$Groups pairs=$Pairs restarts=${Bench.L2PRestarts} batch=$Batch seed=${args.seed}")

    // --- set-up, several times; every build must be the same ---
    def build(): Built = {
      val t0 = System.nanoTime()
      val embedder = new PTREmbedder(p.nTokens)
      val reps = embedder.embedAll(sample)
      val t1 = System.nanoTime()
      val l2p = L2P.partitionWithReps(sample, embedder, reps,
        Harness.l2pConfig(sample.length, Groups, Pairs, Bench.L2PRestarts))
      val t2 = System.nanoTime()
      val grouped = SparkSearch.assignGroups(data, l2p.model).cache()
      grouped.count()
      val t3 = System.nanoTime()
      val tgm = SparkSearch.buildTGM(grouped, l2p.model.nGroups)
      val t4 = System.nanoTime()
      Built(l2p, grouped, tgm, Bench.ms(t0, t1), Bench.ms(t1, t2), Bench.ms(t2, t3), Bench.ms(t3, t4),
            (t4 - t0) / 1e9)
    }
    def assignment(b: Built): Array[Int] = {
      val a = new Array[Int](db.length)
      b.grouped.select("sid", "gid").collect().foreach(r => a(r.getLong(0).toInt) = r.getInt(1))
      a
    }
    val builds = ArrayBuffer.empty[Built]
    val fps = ArrayBuffer.empty[String]
    var assign: Array[Int] = null
    for (_ <- 1 to Bench.SetupReps) {
      builds.lastOption.foreach(_.grouped.unpersist(blocking = true))
      val b = build()
      builds += b
      assign = assignment(b)
      fps += Bench.fingerprint(assign, b.l2p.modelsTrained, b.tgm.sizeBytes)
    }
    if (fps.distinct.length != 1) report.problem(s"builds differ: fingerprints ${fps.mkString(",")}")
    val built = builds.last
    val tgm = built.tgm
    val grouping = new Grouping(assign, tgm.nGroups)
    val members = grouping.members
    report.note(s"build fingerprint ${fps.head} (models=${built.l2p.modelsTrained}, " +
      s"groups=${tgm.nGroups}, index_bytes=${tgm.sizeBytes})")
    report.note(f"setup_s per build: ${builds.map(b => f"${b.totalS}%.3f").mkString(", ")}")

    // --- inputs and their expected answers ---
    val pool = Array.fill(Pool)(db(rnd.nextInt(db.length)))
    val expect = pool.map(q => Oracle.scan(brute, q))
    val replay = new Replay(tgm, members, db)
    val peQueries = Array.fill(Bench.PeQueries)(db(rnd.nextInt(db.length)))
    val pe = peQueries.map { q =>
      SearchStats(replay.candidates(replay.knn(q, replay.ubs(q))), 0, 0, 0.0).peKnn(db.length, Oracle.K)
    }.sum / peQueries.length
    report.put("setup_s", Bench.median(builds.map(_.totalS).toSeq), "s")
    report.put("pe_knn10", pe, "ratio")
    report.put("index_kb", tgm.sizeBytes / 1024.0, "KiB")

    /** One batch call; returns the wall time in ns and checks every answer. */
    def call(kind: Int, qids: Array[Int], record: Boolean): Long = {
      val queries = qids.indices.map(i => (i.toLong, pool(qids(i)))).toArray
      var hits: Map[Long, Seq[Hit]] = null
      val qdf = if (kind < 2) queries.toSeq.toDF("qid", "tokens") else null
      val t0 = System.nanoTime()
      if (kind < 2) {
        val rows = SparkSearch.rangeSearch(built.grouped, qdf, tgm, KindDelta(kind)).collect()
        hits = rows.groupBy(_.getLong(0)).map { case (q, rs) =>
          q -> rs.toSeq.map(r => Hit(r.getLong(1).toInt, r.getDouble(2))) }
      } else {
        hits = SparkSearch.knnSearch(built.grouped, queries, tgm, Oracle.K).map { case (q, h) => q -> h.toSeq }
      }
      val ns = System.nanoTime() - t0
      for (i <- qids.indices) {
        val got = hits.getOrElse(i.toLong, Seq.empty)
        val bad = if (kind < 2) Oracle.checkRange(expect(qids(i)), KindDelta(kind), got)
                  else Oracle.checkKnn(expect(qids(i)), got)
        if (record) report.attempted += 1
        bad.foreach(m => report.fail(s"spark ${Kinds(kind)} query ${qids(i)}: $m"))
      }
      ns
    }

    // Warm-up: every physical plan runs before timing, so a cold first
    // plan (codegen, broadcast set-up) does not land on one query kind.
    for (_ <- 1 to WarmupBatches; k <- Kinds.indices)
      call(k, Array.fill(Batch)(rnd.nextInt(Pool)), record = false)

    val perQuery = Array.fill(Kinds.length)(new Samples) // batch ns / batch size
    val batchMs = Array.fill(Kinds.length)(ArrayBuffer.empty[Double])
    val acc = Array.fill(Kinds.length)(new Layers.Acc)
    var op = 0L

    /** Batches until `seconds` have passed; returns (queries, busy ns). */
    def loop(seconds: Double, traced: Boolean): (Long, Long) = {
      var queries = 0L
      var busyNs = 0L
      val end = System.nanoTime() + (seconds * 1e9).toLong
      while (System.nanoTime() < end) {
        val kind = (op % Kinds.length).toInt // round robin: equal batch counts per kind
        val qids = Array.fill(Batch)(rnd.nextInt(Pool))
        val t0 = System.nanoTime()
        val ns = call(kind, qids, record = true)
        op += 1
        queries += Batch; busyNs += ns
        if (!traced) { perQuery(kind).add(ns / Batch); batchMs(kind) += ns / 1e6 }
        else {
          val parent = s"spark.${Kinds(kind)}"
          report.span(op, parent, t0, t0 + ns, "", Batch)
          for (qi <- qids) replay.traced(op, parent, pool(qi), KindDelta(kind), acc(kind), report)
          acc(kind).opNs += ns
          acc(kind).hits +=
            (if (kind < 2) qids.map(qi => expect(qi).hits.count(_.sim >= KindDelta(kind))).sum
             else Batch * Oracle.K)
        }
      }
      (queries, busyNs)
    }

    if (!args.trace) {
      val (queries, busyNs) = loop(args.seconds, traced = false)
      for (k <- Kinds.indices)
        report.note(s"${Kinds(k)} batches (ms, in order; the first is the first after warm-up): " +
          batchMs(k).map(x => f"$x%.1f").mkString(" "))
      report.put("ops_per_s", queries / (busyNs / 1e9), "1/s")
      for (k <- Kinds.indices) {
        val s = perQuery(k)
        report.put(s"${Kinds(k)}_p50_us", s.pctUs(50), "us")
        s.tailPct.foreach(tp => report.put(s"${Kinds(k)}_tail_us", s.pctUs(tp), "us"))
        report.note(s"${Kinds(k)}: ${s.n} batches of $Batch, tail = p${s.tailPct.getOrElse("-")}")
      }
      report.put("spark_range09_qps", 1e6 / perQuery(0).pctUs(50), "1/s")
      report.put("spark_knn10_qps", 1e6 / perQuery(2).pctUs(50), "1/s")
    } else {
      // Untraced and traced slices alternate, so drift during the run
      // cancels; the difference in mean time per query between the two is
      // the tracing overhead.
      var plain = (0L, 0L); var traced = (0L, 0L)
      for (i <- 0 until 4) {
        val (q, ns) = loop(args.seconds / 4.0, traced = i % 2 == 1)
        if (i % 2 == 1) traced = (traced._1 + q, traced._2 + ns) else plain = (plain._1 + q, plain._2 + ns)
      }
      report.put("trace.overhead_pct",
        100.0 * ((traced._2.toDouble / traced._1) / (plain._2.toDouble / plain._1) - 1.0), "%")
      report.put("embed.ms", built.embedMs, "ms")
      report.put("l2p.train_ms", built.l2pMs, "ms")
      report.put("l2p.models", built.l2p.modelsTrained, "count")
      report.put("l2p.ms_per_model", built.l2pMs / math.max(1, built.l2p.modelsTrained), "ms")
      report.put("l2p.imbalance", grouping.imbalance, "ratio")
      report.put("l2p.u_metric", Grouping.uMetric(dbArr, grouping).toDouble, "count")
      report.put("tgm.build_ms", built.tgmMs, "ms")
      report.put("tgm.bytes", tgm.sizeBytes.toDouble, "B")
      report.put("spark.assign_ms", built.assignMs, "ms")
      Layers.put(acc, report)
      report.put("trace.invalid_ops", 0.0, "count")
      report.put("jvm.heap_used_mb", Bench.heapUsedMb(), "MB")
      InMemoryBench.reference(db, brute, pool, expect, report)
    }
    built.grouped.unpersist(blocking = true)
    data.unpersist(blocking = true)
  }
}

/** Replays, on the driver, the pruning the Spark path does on executors:
  * the UB of every group through the public `tgm.ub(q, g)`, the groups that
  * survive, and verification as `measure.sim` over their members.
  */
final class Replay(tgm: TGM, members: Array[Array[Int]], db: IndexedSeq[Array[Int]]) {
  private var sink = 0.0

  def ubs(q: Array[Int]): Array[Double] = Array.tabulate(tgm.nGroups)(g => tgm.ub(q, g))

  def candidates(groups: Array[Int]): Long = groups.iterator.map(members(_).length.toLong).sum

  /** Range candidates: every non-empty group whose UB reaches δ. */
  def range(ub: Array[Double], delta: Double): Array[Int] =
    Array.range(0, tgm.nGroups).filter(g => members(g).nonEmpty && ub(g) >= delta)

  /** kNN candidates of `SparkSearch.knnSearch`: the highest-UB groups
    * covering `KnnSlack`·k sets, then every other group whose UB beats the
    * kth-best similarity found in them.
    */
  def knn(q: Array[Int], ub: Array[Double]): Array[Int] = {
    val phase1 = ArrayBuffer.empty[Int]
    var covered = 0L
    for (g <- Array.range(0, tgm.nGroups).sortBy(g => -ub(g))
         if covered < SparkBench.KnnSlack.toLong * Oracle.K && members(g).nonEmpty) {
      phase1 += g; covered += members(g).length
    }
    val sims = phase1.flatMap(g => members(g).map(sid => SetOps.jaccard(q, db(sid)))).sorted(Ordering[Double].reverse)
    val lambda = if (sims.length >= Oracle.K) sims(Oracle.K - 1) else -1.0
    val in1 = phase1.toSet
    val phase2 = (0 until tgm.nGroups).filter(g => !in1(g) && members(g).nonEmpty &&
                                                   (sims.length < Oracle.K || ub(g) > lambda))
    (phase1 ++ phase2).toArray
  }

  /** Replays one query of a traced batch and adds it to `acc`. */
  def traced(op: Long, parent: String, q: Array[Int], delta: Double, acc: Layers.Acc, report: Report): Unit = {
    val u0 = System.nanoTime()
    val ub = ubs(q)
    val u1 = System.nanoTime()
    report.span(op, "tgm.ub_pass", u0, u1, parent, tgm.nGroups)
    val read = if (delta.isNaN) knn(q, ub) else range(ub, delta)
    val s0 = System.nanoTime()
    var r = 0
    while (r < read.length) {
      val m = members(read(r))
      var i = 0
      while (i < m.length) { sink += SetOps.jaccard(q, db(m(i))); i += 1 }
      r += 1
    }
    val s1 = System.nanoTime()
    val cands = candidates(read)
    report.span(op, "setops.sim", s0, s1, parent, cands)
    acc.n += 1; acc.ubNs += u1 - u0; acc.simNs += s1 - s0; acc.cands += cands; acc.groups += read.length
    acc.probes += tgm.nGroups.toLong * q.length
  }
}
