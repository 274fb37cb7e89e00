package perfbench

import repro.baselines.{BruteForce, InvIdx}
import repro.core.{Hit, Les3Index, SearchStats}
import repro.data.SetGen
import repro.embed.PTREmbedder
import repro.exp.Harness
import repro.partition.L2P

import Layers.{KindDelta, Kinds}

import scala.collection.immutable.ArraySeq
import scala.collection.mutable
import scala.util.Random

/** The in-memory workloads: [[Les3Index]] range and kNN queries, and §6
  * inserts, each call timed on its own.
  */
object InMemoryBench {

  /** @param profile     generator profile of the fixed database
    * @param groups      L2P target group count
    * @param pairs       Siamese training pairs per model (L2P light config)
    * @param pool        distinct queries drawn from the database
    * @param insertShare share of operations that insert a new set
    * @param insertQueryShare share of queries drawn from the sets inserted so far
    * @param repOps      operations per repetition; each starts from a fresh index
    */
  final case class Workload(name: String, profile: SetGen.Profile, groups: Int,
                            pairs: Int, pool: Int,
                            insertShare: Double, insertQueryShare: Double, repOps: Int)

  // Verification-bound: short sets, so the UB pass is a small part of a query.
  val kosarakRead: Workload = Workload("kosarak-read", SetGen.kosarakLite, groups = 128,
    pairs = 3000, pool = 1000, insertShare = 0.0, insertQueryShare = 0.0,
    repOps = Int.MaxValue)

  // Long sets, so the TGM/bitmap UB pass is a large part of a query, plus
  // open-universe inserts, which a read-side layout change could slow.
  // 10,000 sets keep its data about the size of one core's L2 cache, which
  // makes it less sensitive to memory traffic from outside the program.
  val fsMixed: Workload = Workload("fs-mixed", SetGen.fsLite.copy(nSets = 10000), groups = 128,
    pairs = 2000, pool = 400, insertShare = 0.2, insertQueryShare = 0.25,
    repOps = 2000)

  val WarmupSeconds = 3.0

  final case class Built(index: Les3Index, l2p: L2P.Result, embedMs: Double, l2pMs: Double,
                         indexMs: Double, totalS: Double)

  /** Set-up as timed by `setup_s`: PTR embedding, the L2P cascade, and the
    * index (TGM) build. Data generation and the oracle are not part of it.
    */
  def build(w: Workload, p: SetGen.Profile, db: IndexedSeq[Array[Int]]): Built = {
    val t0 = System.nanoTime()
    val embedder = new PTREmbedder(p.nTokens)
    val reps = embedder.embedAll(db)
    val t1 = System.nanoTime()
    val l2p = L2P.partitionWithReps(db, embedder, reps,
      Harness.l2pConfig(db.length, w.groups, w.pairs, Bench.L2PRestarts))
    val t2 = System.nanoTime()
    val index = new Les3Index(db, l2p.grouping)
    val t3 = System.nanoTime()
    Built(index, l2p, Bench.ms(t0, t1), Bench.ms(t1, t2), Bench.ms(t2, t3), (t3 - t0) / 1e9)
  }

  def run(w: Workload, args: Bench.Args, report: Report): Unit = {
    // The database is the workload's fixed data set; the seed draws the
    // queries and the inserted sets.
    val p = w.profile
    val dbArr = SetGen.local(p)
    val db = ArraySeq.unsafeWrapArray(dbArr)
    val brute = new BruteForce(db)
    val rnd = new Random(args.seed * 7919L + 17)
    report.note(s"workload ${w.name}: |D|=${db.length} |T|=${p.nTokens} avg=${p.avgSize} " +
      s"groups=${w.groups} pairs=${w.pairs} restarts=${Bench.L2PRestarts} seed=${args.seed}")

    // --- set-up, several times; every build must be the same ---
    val builds = (1 to Bench.SetupReps).map(_ => build(w, p, db))
    val fps = builds.map(b => Bench.fingerprint(b.l2p.grouping.assignment, b.l2p.modelsTrained,
                                                  b.index.tgm.sizeBytes))
    if (fps.distinct.length != 1) report.problem(s"builds differ: fingerprints ${fps.mkString(",")}")
    val built = builds.last
    val grouping = built.l2p.grouping
    report.note(s"build fingerprint ${fps.head} (models=${built.l2p.modelsTrained}, " +
      s"groups=${grouping.nGroups}, index_bytes=${built.index.tgm.sizeBytes})")
    report.note(f"setup_s per build: ${builds.map(b => f"${b.totalS}%.3f").mkString(", ")}")

    // --- inputs and their expected answers (outside any timed region) ---
    val pool = Array.fill(w.pool)(db(rnd.nextInt(db.length)))
    val poolExpect = pool.map(q => Oracle.scan(brute, q))
    val inserts = if (w.insertShare > 0)
      SetGen.openUpdates(p.copy(seed = p.seed + 1000L * args.seed), w.repOps, 8 * w.repOps) else Array.empty[Array[Int]]
    val insertExpect = mutable.HashMap.empty[Int, Expect] // base answers for inserted-set queries

    // pe_knn10 over its own seeded queries (PE needs no oracle), and
    // index_kb, on the freshly built index.
    val peQueries = Array.fill(Bench.PeQueries)(db(rnd.nextInt(db.length)))
    val pe = peQueries.map(q => built.index.knn(q, Oracle.K).stats.peKnn(db.length, Oracle.K)).sum / peQueries.length
    report.put("setup_s", Bench.median(builds.map(_.totalS)), "s")
    report.put("pe_knn10", pe, "ratio")
    report.put("index_kb", built.index.tgm.sizeBytes / 1024.0, "KiB")

    // --- the closed loop ---
    val Insert = Kinds.length // index of inserts in the per-kind samples
    val all = Array.fill(Kinds.length + 1)(new Samples)
    var cur = Array.fill(Kinds.length + 1)(new Samples)
    def add(k: Int, ns: Long): Unit = { all(k).add(ns); cur(k).add(ns) }
    val trace = new InMemoryTrace(report)
    var index = built.index
    var nInserted = 0
    var opsInRep = 0
    var opId = 0L

    def freshIndex(): Unit = { index = new Les3Index(db, grouping); nInserted = 0; opsInRep = 0 }

    /** The exact answers over the database as it stands: the cached base
      * scan plus a scan of the sets inserted in this repetition.
      */
    def expectFor(qi: Int, q: Array[Int]): Expect = {
      val base = if (qi >= 0) poolExpect(qi) else insertExpect.getOrElseUpdate(qi, Oracle.scan(brute, q))
      val inserted = new BruteForce(index.db.slice(db.length, index.nSets).toIndexedSeq)
      Oracle.merge(base, Oracle.scan(inserted, q, db.length))
    }

    /** One operation of the mix, checked against the oracle when recorded. */
    def step(record: Boolean, traced: Boolean): Unit = {
      if (opsInRep >= w.repOps) freshIndex()
      opsInRep += 1
      opId += 1
      if (nInserted < inserts.length && rnd.nextDouble() < w.insertShare) {
        val set = inserts(nInserted)
        val nTokens = index.tgm.nTokens
        val t0 = System.nanoTime()
        val (sid, _) = index.insert(set)
        val t1 = System.nanoTime()
        nInserted += 1
        if (record) {
          add(Insert, t1 - t0); report.attempted += 1
          if (sid != db.length + nInserted - 1) report.fail(s"insert returned sid $sid")
          if (traced) trace.insert(opId, index, set, nTokens, t0, t1)
        }
        return
      }
      // Query: from the pool, or (fs-mixed) one of the sets inserted so far.
      val qi = if (nInserted > 0 && rnd.nextDouble() < w.insertQueryShare) -1 - rnd.nextInt(nInserted)
               else rnd.nextInt(pool.length)
      val q = if (qi >= 0) pool(qi) else inserts(-qi - 1)
      val kind = rnd.nextInt(Kinds.length)
      var hits: Iterable[Hit] = null
      var stats: SearchStats = null
      val t0 = System.nanoTime()
      try {
        if (kind < 2) { val r = index.range(q, KindDelta(kind)); hits = r.hits; stats = r.stats }
        else { val r = index.knn(q, Oracle.K); hits = r.hits; stats = r.stats }
      } catch { case e: Exception => if (record) { report.attempted += 1; report.fail(s"${Kinds(kind)} threw $e") }; return }
      val t1 = System.nanoTime()
      if (record) {
        add(kind, t1 - t0)
        report.attempted += 1
        val e = expectFor(qi, q)
        val bad = if (kind < 2) Oracle.checkRange(e, KindDelta(kind), hits) else Oracle.checkKnn(e, hits)
        bad.foreach(m => report.fail(s"${Kinds(kind)} query $qi: $m"))
        if (traced) trace.query(opId, kind, index, q, stats, hits.size, t0, t1)
      }
    }

    def loop(seconds: Double, record: Boolean, traced: Boolean): Unit = {
      val end = System.nanoTime() + (seconds * 1e9).toLong
      while (System.nanoTime() < end) step(record, traced)
    }

    /** The measured time in one-second slices; returns each slice's samples. */
    def slices(traced: Int => Boolean): Seq[Array[Samples]] =
      (0 until args.seconds).map { i =>
        cur = Array.fill(Kinds.length + 1)(new Samples)
        loop(1.0, record = true, traced(i))
        cur
      }
    def busyNs(s: Array[Samples]): Long = s.map(_.totalNs).sum
    def ops(s: Array[Samples]): Long = s.map(_.n.toLong).sum

    loop(WarmupSeconds, record = false, traced = false)
    if (inserts.nonEmpty) freshIndex()

    if (!args.trace) {
      val sl = slices(_ => false)
      report.put("ops_per_s", sl.map(ops).sum / (sl.map(busyNs).sum / 1e9), "1/s")
      val names = Kinds :+ "insert"
      for (k <- names.indices if all(k).n > 0) {
        report.put(s"${names(k)}_p50_us", all(k).pctUs(50), "us")
        all(k).tailPct.foreach(tp => report.put(s"${names(k)}_tail_us", all(k).pctUs(tp), "us"))
        report.note(s"${names(k)}: ${all(k).n} samples, tail = p${all(k).tailPct.getOrElse("-")}")
      }
    } else {
      // Untraced and traced slices alternate, so drift during the run
      // cancels; the difference in mean operation latency between the two
      // is the tracing overhead.
      val sl = slices(_ % 2 == 1)
      def meanNs(xs: Seq[Array[Samples]]) = xs.map(busyNs).sum.toDouble / xs.map(ops).sum
      val (traced, plain) = sl.zipWithIndex.partition(_._2 % 2 == 1)
      report.put("trace.overhead_pct", 100.0 * (meanNs(traced.map(_._1)) / meanNs(plain.map(_._1)) - 1.0), "%")
      trace.finish(built, grouping, dbArr)
      reference(db, brute, pool, poolExpect, report)
    }
  }

  /** Reference timings of the baselines on the same pool (kNN k=10). */
  def reference(db: IndexedSeq[Array[Int]], brute: BruteForce, pool: Array[Array[Int]],
                expect: Array[Expect], report: Report): Unit = {
    val inv = new InvIdx(db)
    val n = math.min(pool.length, 200)
    for ((name, knn) <- Seq[(String, Array[Int] => Iterable[Hit])](
           "invidx" -> (q => inv.knn(q, Oracle.K).hits), "brute" -> (q => brute.knn(q, Oracle.K).hits))) {
      val s = new Samples
      for (i <- 0 until n) {
        val t0 = System.nanoTime()
        val hits = knn(pool(i))
        s.add(System.nanoTime() - t0)
        report.attempted += 1
        Oracle.checkKnn(expect(i), hits).foreach(m => report.fail(s"$name knn query $i: $m"))
      }
      report.put(s"ref.${name}_knn10_p50_us", s.pctUs(50), "us")
    }
  }
}

/** Per-layer replay of traced in-memory operations. After each call,
  * outside its timed span, the UB pass is replayed through the public
  * `tgm.ub(q, g)` for every group and verification as `measure.sim` over
  * the members of the groups the engine read. The replayed candidate count
  * must equal the engine's `SearchStats.candidates`; an operation where it
  * does not is counted as invalid and left out of the per-layer split.
  */
final class InMemoryTrace(report: Report) {
  private val accs = Array.fill(Kinds.length)(new Layers.Acc)
  private var invalid = 0L
  private var sink = 0.0
  private var insN = 0L; private var insNs = 0L; private var insUbNs = 0L

  def query(op: Long, kindIx: Int, index: Les3Index, q: Array[Int],
            stats: SearchStats, nHits: Int, t0: Long, t1: Long): Unit = {
    val kind = Kinds(kindIx)
    val delta = KindDelta(kindIx)
    val name = s"core.$kind"
    report.span(op, name, t0, t1)
    val tgm = index.tgm
    val n = tgm.nGroups
    val ubs = new Array[Double](n)
    val u0 = System.nanoTime()
    var g = 0
    while (g < n) { ubs(g) = tgm.ub(q, g); g += 1 }
    val u1 = System.nanoTime()
    report.span(op, "tgm.ub_pass", u0, u1, name, n)
    // The groups the engine read: for range every non-empty group whose UB
    // reaches δ; for kNN the first `groupsRead` non-empty groups in
    // descending-UB order (the engine's own order).
    val read: Array[Int] =
      if (!delta.isNaN) Array.range(0, n).filter(g => ubs(g) >= delta && index.members(g).nonEmpty)
      else Array.range(0, n).sortBy(g => -ubs(g)).filter(index.members(_).nonEmpty).take(stats.groupsRead)
    val cands = read.iterator.map(index.members(_).length.toLong).sum
    if (cands != stats.candidates || read.length != stats.groupsRead) {
      invalid += 1
      report.note(s"INVALID split op $op ($kind): replay $cands candidates in ${read.length} groups, " +
        s"engine ${stats.candidates} in ${stats.groupsRead}")
      return
    }
    // The same loop shape as the engine's verification.
    val s0 = System.nanoTime()
    var r = 0
    while (r < read.length) {
      val m = index.members(read(r))
      var i = 0
      while (i < m.length) { sink += index.measure.sim(q, index.db(m(i))); i += 1 }
      r += 1
    }
    val s1 = System.nanoTime()
    report.span(op, "setops.sim", s0, s1, name, cands)
    val a = accs(kindIx)
    a.n += 1; a.opNs += t1 - t0; a.ubNs += u1 - u0; a.simNs += s1 - s0
    a.cands += cands; a.groups += read.length; a.hits += nHits; a.probes += stats.ubProbes
  }

  /** `nTokens` is the token universe the call saw, before the insert grew it. */
  def insert(op: Long, index: Les3Index, set: Array[Int], nTokens: Int, t0: Long, t1: Long): Unit = {
    report.span(op, "core.insert", t0, t1)
    val tgm = index.tgm
    val seen = set.filter(_ < nTokens)
    val u0 = System.nanoTime()
    var g = 0
    while (g < tgm.nGroups) { if (seen.nonEmpty) sink += tgm.ub(seen, g); g += 1 }
    val u1 = System.nanoTime()
    report.span(op, "tgm.ub_pass", u0, u1, "core.insert", tgm.nGroups)
    insN += 1; insNs += t1 - t0; insUbNs += u1 - u0
  }

  def finish(built: InMemoryBench.Built, grouping: repro.core.Grouping, db: Array[Array[Int]]): Unit = {
    val l2p = built.l2p
    report.put("embed.ms", built.embedMs, "ms")
    report.put("l2p.train_ms", built.l2pMs, "ms")
    report.put("l2p.models", l2p.modelsTrained, "count")
    report.put("l2p.ms_per_model", built.l2pMs / math.max(1, l2p.modelsTrained), "ms")
    report.put("l2p.imbalance", grouping.imbalance, "ratio")
    report.put("l2p.u_metric", repro.core.Grouping.uMetric(db, grouping).toDouble, "count")
    report.put("tgm.build_ms", built.indexMs, "ms")
    report.put("tgm.bytes", built.index.tgm.sizeBytes.toDouble, "B")
    Layers.put(accs, report)
    report.put("trace.invalid_ops", invalid.toDouble, "count")
    if (insN > 0) {
      report.put("core.insert_ub_us", insUbNs / 1e3 / insN, "us")
      report.put("core.insert_self_us", (insNs - insUbNs) / 1e3 / insN, "us")
    }
    report.put("jvm.heap_used_mb", Bench.heapUsedMb(), "MB")
  }
}
