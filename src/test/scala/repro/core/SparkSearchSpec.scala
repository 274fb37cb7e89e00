package repro.core

import org.apache.spark.SparkException
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{DoubleType, LongType}
import org.scalatest.concurrent.Eventually._
import org.scalatest.time.{Seconds, Span}
import repro.{Oracle, SparkSpec}
import repro.baselines.{BruteForce, DualTrans, InvIdx}
import repro.data.SetGen
import repro.embed.PTREmbedder
import repro.partition.L2P

import java.util.concurrent.{CyclicBarrier, Executors}
import scala.concurrent.duration.Duration
import scala.concurrent.{Await, ExecutionContext, Future}
import scala.util.Random

/** Distributed-path tests: the DataFrame TGM build, the broadcast-model
  * group assignment, and the distributed range/kNN search — with range
  * results verified row-by-row against DuckDB computing Jaccard in SQL.
  */
class SparkSearchSpec extends SparkSpec {

  private lazy val profile = SetGen.kosarakLite.copy(name = "spark-test", nSets = 800,
    nTokens = 300)
  private lazy val db = SetGen.local(profile)
  private lazy val l2p = L2P.partition(db, new PTREmbedder(profile.nTokens),
    L2P.Config(targetGroups = 8, initGroups = 2, minGroupSize = 20,
      siamese = repro.ml.Siamese.Config(pairs = 2000, epochs = 2)))
  private lazy val dataDF = SetGen.toDF(spark, profile)
  private lazy val groupedDF = SparkSearch.assignGroups(dataDF, l2p.model).cache()

  /** A `grouped` no search has seen: a new, uncached object over the
    * cached rows of `groupedDF`, so a search persists nothing but its stores.
    */
  private def freshGrouped() = { groupedDF.count(); groupedDF.repartition(3) }

  private def persisted(): Set[Int] = spark.sparkContext.getPersistentRDDs.keySet.toSet

  /** Asserts range (as (sid, sim) sets) and kNN (as similarity multisets)
    * on `grouped` equal `BruteForce` under the TGM's measure.
    */
  private def assertExact(grouped: DataFrame, tgm: TGM,
                          queryArr: Array[(Long, Array[Int])], delta: Double, k: Int): Unit = {
    import spark.implicits._
    val brute = new BruteForce(db, tgm.measure)
    val rows = SparkSearch.rangeSearch(grouped, queryArr.toSeq.toDF("qid", "tokens"), tgm, delta).collect()
      .map(r => (r.getLong(0), (r.getLong(1).toInt, r.getDouble(2))))
    val knn = SparkSearch.knnSearch(grouped, queryArr, tgm, k)
    for ((qid, q) <- queryArr) {
      assert(rows.filter(_._1 == qid).map(_._2).sorted.toSeq ==
        brute.range(q, delta).hits.map(h => (h.sid, h.sim)).sorted.toSeq,
        s"${tgm.measure.name}, ${tgm.nGroups} groups, range query $qid")
      assert(knn(qid).map(_.sim).sorted.toSeq == brute.knn(q, k).hits.map(_.sim).sorted.toSeq,
        s"${tgm.measure.name}, ${tgm.nGroups} groups, kNN query $qid")
    }
  }

  private def someQueries(seed: Int, n: Int): Array[(Long, Array[Int])] = {
    val rnd = new Random(seed)
    Array.tabulate(n)(i => (i.toLong, db(rnd.nextInt(db.length))))
  }

  test("Spark-generated data equals local generation") {
    val rows = dataDF.collect().map(r => (r.getLong(0), r.getSeq[Int](1).toArray)).sortBy(_._1)
    assert(rows.length == db.length)
    for ((sid, tokens) <- rows) assert(tokens.toSeq == db(sid.toInt).toSeq)
  }

  test("assignGroups UDF matches driver-side model inference") {
    val rows = groupedDF.select("sid", "gid").collect()
    for (r <- rows) {
      assert(r.getInt(1) == l2p.model.assign(db(r.getLong(0).toInt)),
        s"set ${r.getLong(0)}")
    }
  }

  test("model inference routes every training set to its trained group") {
    for (sid <- db.indices) {
      assert(l2p.model.assign(db(sid)) == l2p.grouping.assignment(sid), s"set $sid")
    }
  }

  test("DataFrame-built TGM equals locally-built TGM") {
    val local = TGM.build(db, new Grouping(db.indices.map(i => l2p.model.assign(db(i))).toArray,
      l2p.model.nGroups))
    val fromDF = SparkSearch.buildTGM(groupedDF, l2p.model.nGroups)
    assert(fromDF.nGroups == local.nGroups)
    assert(fromDF.nTokens == local.nTokens && fromDF.sizeBytes == local.sizeBytes)
    val rnd = new Random(1)
    val qs = Seq(Array.empty[Int], Array(0, profile.nTokens, profile.nTokens + 70, 1 << 20)) ++
      Seq.fill(30)(SetOps.canon(Seq.fill(rnd.nextInt(8) + 1)(rnd.nextInt(profile.nTokens))))
    for (q <- qs) assert(fromDF.matchedAll(q).toSeq == local.matchedAll(q).toSeq, q.mkString(","))
  }

  test("distributed range search matches DuckDB oracle (Jaccard in SQL)") {
    val tgm = SparkSearch.buildTGM(groupedDF, l2p.model.nGroups)
    val rnd = new Random(2)
    val queryArr = Array.tabulate(10)(i => (i.toLong, db(rnd.nextInt(db.length))))
    import spark.implicits._
    val queries = queryArr.toSeq.toDF("qid", "tokens")
    val delta = 0.5
    val result = SparkSearch.rangeSearch(groupedDF, queries, tgm, delta)
      .select(col("qid"), col("sid"), round(col("sim"), 6).as("sim"))

    val qtok = queryArr.toSeq.flatMap { case (qid, ts) => ts.map(t => (qid, t)) }
      .toDF("qid", "token")
    val stok = SetGen.explodedDF(spark, db, "sid")
    Oracle.assertEquivalent(result,
      s"""
         |WITH qs AS (SELECT qid, COUNT(*) AS nq FROM qtok GROUP BY qid),
         |     ss AS (SELECT sid, COUNT(*) AS ns FROM stok GROUP BY sid),
         |     ov AS (SELECT q.qid, s.sid, COUNT(*) AS c
         |            FROM qtok q JOIN stok s ON q.token = s.token
         |            GROUP BY q.qid, s.sid)
         |SELECT ov.qid AS qid,
         |       ov.sid AS sid,
         |       ROUND(ov.c * 1.0 / (qs.nq + ss.ns - ov.c), 6) AS sim
         |FROM ov JOIN qs ON ov.qid = qs.qid JOIN ss ON ov.sid = ss.sid
         |WHERE ov.c * 1.0 / (qs.nq + ss.ns - ov.c) >= $delta
         |""".stripMargin,
      "qtok" -> qtok, "stok" -> stok)
  }

  test("distributed kNN matches local brute force") {
    val tgm = SparkSearch.buildTGM(groupedDF, l2p.model.nGroups)
    val rnd = new Random(3)
    val queryArr = Array.tabulate(8)(i => (i.toLong, db(rnd.nextInt(db.length))))
    val hits = SparkSearch.knnSearch(groupedDF, queryArr, tgm, k = 10)
    val brute = new BruteForce(db)
    for ((qid, q) <- queryArr) {
      val exp = brute.knn(q, 10).hits.map(h => math.round(h.sim * 1e9)).sorted
      val got = hits(qid).map(h => math.round(h.sim * 1e9)).toSeq.sorted
      assert(got == exp, s"query $qid")
    }
  }

  test("distributed search verifies with the TGM's measure (Cosine)") {
    val tgm = SparkSearch.buildTGM(groupedDF, l2p.model.nGroups, SetOps.Cosine)
    val brute = new BruteForce(db, SetOps.Cosine)
    val rnd = new Random(5)
    val queryArr = Array.tabulate(5)(i => (i.toLong, db(rnd.nextInt(db.length))))
    import spark.implicits._
    val range = SparkSearch.rangeSearch(groupedDF, queryArr.toSeq.toDF("qid", "tokens"), tgm, 0.6)
      .collect().map(r => (r.getLong(0), r.getLong(1).toInt, r.getDouble(2)))
    val knn = SparkSearch.knnSearch(groupedDF, queryArr, tgm, k = 10)
    for ((qid, q) <- queryArr) {
      val got = range.filter(_._1 == qid).map(r => (r._2, r._3)).sortBy(_._1).toSeq
      assert(got == brute.range(q, 0.6).hits.map(h => (h.sid, h.sim)).sortBy(_._1).toSeq, s"range query $qid")
      assert(knn(qid).map(_.sim).toSeq.sorted == brute.knn(q, 10).hits.map(_.sim).toSeq.sorted, s"knn query $qid")
    }
  }

  test("kNN with k <= 0 is rejected by every engine and by knnSearch") {
    val engines = Seq[SimilarityIndex](new Les3Index(db, l2p.grouping),
      HTGM.build(db, Seq(l2p.grouping)), new BruteForce(db), new InvIdx(db), new DualTrans(db))
    val tgm = SparkSearch.buildTGM(groupedDF, l2p.model.nGroups)
    for (k <- Seq(0, -1)) {
      for (e <- engines) intercept[IllegalArgumentException](e.knn(db(0), k))
      intercept[IllegalArgumentException](SparkSearch.knnSearch(groupedDF, Array((0L, db(0))), tgm, k))
    }
  }

  test("distributed brute-force range equals distributed LES3 range") {
    val tgm = SparkSearch.buildTGM(groupedDF, l2p.model.nGroups)
    val rnd = new Random(4)
    import spark.implicits._
    val queryArr = Array.tabulate(5)(i => (i.toLong, db(rnd.nextInt(db.length))))
    val queries = queryArr.toSeq.toDF("qid", "tokens")
    val a = SparkSearch.rangeSearch(groupedDF, queries, tgm, 0.6)
      .select("qid", "sid").collect().map(r => (r.getLong(0), r.getLong(1))).sorted
    val b = SparkSearch.bruteForceRange(dataDF, queries, 0.6)
      .select("qid", "sid").collect().map(r => (r.getLong(0), r.getLong(1))).sorted
    assert(a.toSeq == b.toSeq)
  }

  test("knnSearch in one pass returns k hits, led by the query's own set") {
    val tgm = SparkSearch.buildTGM(groupedDF, l2p.model.nGroups)
    val queryArr = Array((0L, db(5)))
    val hits = SparkSearch.knnSearch(groupedDF, queryArr, tgm, k = 3)
    assert(hits(0L).length == 3)
    assert(hits(0L).head.sim == 1.0) // query drawn from the database
  }

  test("rangeSearch and knnSearch reject reversed, duplicated or negative query tokens") {
    val tgm = SparkSearch.buildTGM(groupedDF, l2p.model.nGroups)
    import spark.implicits._
    for (bad <- Seq(Array(5, 3), Array(3, 3), Array(-1, 3))) {
      val batch = Array((0L, db(0)), (1L, bad))
      intercept[IllegalArgumentException](
        SparkSearch.rangeSearch(groupedDF, batch.toSeq.toDF("qid", "tokens"), tgm, 0.5).collect())
      intercept[IllegalArgumentException](SparkSearch.knnSearch(groupedDF, batch, tgm, 3))
    }
  }

  test("rangeSearch rejects a delta outside (0, 1] on the driver and accepts 1.0") {
    val tgm = SparkSearch.buildTGM(groupedDF, l2p.model.nGroups)
    import spark.implicits._
    val queries = Seq((0L, db(0))).toDF("qid", "tokens")
    for (bad <- Seq(0.0, -0.1, 1.0 + 1e-9, Double.NaN))
      intercept[IllegalArgumentException](SparkSearch.rangeSearch(groupedDF, queries, tgm, bad))
    val exact = SparkSearch.rangeSearch(groupedDF, queries, tgm, 1.0).collect().map(_.getLong(1)).sorted
    assert(exact.toSeq == db.indices.filter(db(_).sameElements(db(0))).map(_.toLong))
  }

  test("knnSearch rejects a batch that repeats a qid") {
    val tgm = SparkSearch.buildTGM(groupedDF, l2p.model.nGroups)
    intercept[IllegalArgumentException](
      SparkSearch.knnSearch(groupedDF, Array((0L, db(0)), (0L, db(1))), tgm, 3))
  }

  test("rangeSearch keeps a Long sid past Int.MaxValue; knnSearch rejects it") {
    import spark.implicits._
    val big = (1L << 32) + 5
    val df = Seq((big, Array(1, 2, 3), 0), (7L, Array(2, 3), 0)).toDF("sid", "tokens", "gid")
    val tgm = SparkSearch.buildTGM(df, 1)
    val rows = SparkSearch.rangeSearch(df, Seq((0L, Array(1, 2, 3))).toDF("qid", "tokens"), tgm, 0.5)
      .collect().map(r => (r.getLong(1), r.getDouble(2))).sortBy(_._1)
    assert(rows.toSeq == Seq((7L, 2.0 / 3), (big, 1.0)))
    intercept[ArithmeticException](SparkSearch.knnSearch(df, Array((0L, Array(1, 2, 3))), tgm, k = 1))
  }

  test("answers do not depend on how grouped is partitioned") {
    import spark.implicits._
    val rnd = new Random(6)
    val t = profile.nTokens
    val queryArr = (Seq(Array.empty[Int], Array(t, t + 7), Array(1, 2, t + 3)) ++
      Seq.fill(5)(db(rnd.nextInt(db.length)))).zipWithIndex.map { case (q, i) => (i.toLong, q) }.toArray
    val queries = queryArr.toSeq.toDF("qid", "tokens")
    for (parts <- Seq(1, 3, 7)) {
      val grouped = groupedDF.repartition(parts).cache()
      assert(grouped.rdd.getNumPartitions == parts)
      for (measure <- Seq(SetOps.Jaccard, SetOps.Cosine, SetOps.Dice)) {
        // one group more than the model has: an empty group
        val tgm = SparkSearch.buildTGM(grouped, l2p.model.nGroups + 1, measure)
        val brute = new BruteForce(db, measure)
        for (delta <- Seq(0.07, 0.14, 0.5, 1.0)) {
          val rows = SparkSearch.rangeSearch(grouped, queries, tgm, delta).collect()
            .map(r => (r.getLong(0), (r.getLong(1).toInt, r.getDouble(2))))
          for ((qid, q) <- queryArr) {
            val got = rows.filter(_._1 == qid).map(_._2).sorted.toSeq
            val exp = brute.range(q, delta).hits.map(h => (h.sid, h.sim)).sorted.toSeq
            assert(got == exp, s"$parts partitions, ${measure.name}, δ = $delta, query $qid")
          }
        }
        for (k <- Seq(1, 10, db.length + 5)) {
          val hits = SparkSearch.knnSearch(grouped, queryArr, tgm, k)
          for ((qid, q) <- queryArr)
            assert(hits(qid).map(_.sim).sorted.toSeq == brute.knn(q, k).hits.map(_.sim).sorted.toSeq,
              s"$parts partitions, ${measure.name}, k = $k, query $qid")
        }
      }
      grouped.unpersist(blocking = true)
    }
  }

  test("alternating range and kNN calls on one grouped persist exactly one stores RDD") {
    val grouped = freshGrouped()
    val tgm = SparkSearch.buildTGM(groupedDF, l2p.model.nGroups)
    val before = persisted()
    assertExact(grouped, tgm, someQueries(7, 6), 0.5, 10)
    val stores = persisted() -- before
    assert(stores.size == 1)
    for (i <- 8 to 10) assertExact(grouped, tgm, someQueries(i, 6), 0.5, 10)
    assert(persisted() -- before == stores)
  }

  test("one stores RDD serves Jaccard and Cosine TGMs of n + 1 and n groups") {
    val grouped = freshGrouped()
    val n = l2p.model.nGroups
    val before = persisted()
    var seen = Set.empty[Int]
    // n + 1 groups before n: stores sized by a TGM would have a group the second lacks
    for ((measure, groups) <- Seq((SetOps.Jaccard, n + 1), (SetOps.Cosine, n + 1), (SetOps.Cosine, n),
                                  (SetOps.Jaccard, n))) {
      val tgm = SparkSearch.buildTGM(grouped, groups, measure)
      assertExact(grouped, tgm, someQueries(11, 5), 0.5, 10)
      seen ++= persisted() -- before
      assert(seen.size == 1, s"${measure.name}, $groups groups: stores RDDs $seen")
    }
  }

  test("a range answer is materialised: a second collect runs no job") {
    import spark.implicits._
    val sc = spark.sparkContext
    val tgm = SparkSearch.buildTGM(groupedDF, l2p.model.nGroups)
    val queries = someQueries(12, 5).toSeq.toDF("qid", "tokens")
    val range = SparkSearch.rangeSearch(groupedDF, queries, tgm, 0.5)
    val first = range.collect().toSeq
    assert(first.nonEmpty)
    try {
      sc.setJobGroup("range-reread", "second collect of a range answer")
      assert(range.collect().toSeq == first)
      // Status events arrive in order, so once the sentinel job is seen,
      // any job the second collect started is seen too.
      sc.setJobGroup("range-sentinel", "a job after the second collect")
      sc.parallelize(Seq(1), 1).count()
    } finally sc.clearJobGroup()
    eventually(timeout(Span(30, Seconds))) {
      assert(sc.statusTracker.getJobIdsForGroup("range-sentinel").nonEmpty)
    }
    assert(sc.statusTracker.getJobIdsForGroup("range-reread").isEmpty)
  }

  test("a TGM short of some row's gid fails with IllegalArgumentException") {
    import spark.implicits._
    val grouped = freshGrouped()
    val maxGid = groupedDF.agg(max("gid")).head().getInt(0)
    val small = new TGM(maxGid)
    val queries = someQueries(13, 3)
    for (search <- Seq[() => Any](
           () => SparkSearch.rangeSearch(grouped, queries.toSeq.toDF("qid", "tokens"), small, 0.5),
           () => SparkSearch.knnSearch(grouped, queries, small, 5))) {
      val e = intercept[SparkException](search())
      assert(e.getCause.isInstanceOf[IllegalArgumentException], e.getCause)
    }
    // The stores stay usable for a TGM that covers every gid.
    assertExact(grouped, SparkSearch.buildTGM(groupedDF, l2p.model.nGroups), queries, 0.5, 5)
  }

  test("two driver threads searching a fresh grouped at once both get exact answers") {
    val tgm = SparkSearch.buildTGM(groupedDF, l2p.model.nGroups)
    val pool = Executors.newFixedThreadPool(2)
    implicit val ec: ExecutionContext = ExecutionContext.fromExecutorService(pool)
    try {
      for (round <- 0 until 3) {
        val grouped = freshGrouped()
        val before = persisted()
        val start = new CyclicBarrier(2)
        // kNN first: it reaches the store build without a job of its own
        val calls = (0 until 2).map { t =>
          Future { start.await(); assertExact(grouped, tgm, someQueries(20 + 2 * round + t, 5), 0.6, 5) }
        }
        calls.foreach(Await.result(_, Duration.Inf))
        assert((persisted() -- before).size == 1, s"round $round")
      }
    } finally pool.shutdown()
  }

  test("an empty batch gives an empty answer and builds no stores") {
    import spark.implicits._
    val grouped = freshGrouped()
    val tgm = SparkSearch.buildTGM(groupedDF, l2p.model.nGroups)
    val before = persisted()
    assert(SparkSearch.knnSearch(grouped, Array.empty, tgm, 10).isEmpty)
    intercept[IllegalArgumentException](SparkSearch.knnSearch(grouped, Array.empty, tgm, 0))
    val range = SparkSearch.rangeSearch(grouped, Seq.empty[(Long, Array[Int])].toDF("qid", "tokens"), tgm, 0.5)
    assert(range.schema.map(f => (f.name, f.dataType)) ==
      Seq(("qid", LongType), ("sid", LongType), ("sim", DoubleType)))
    assert(range.collect().isEmpty)
    assert(persisted() == before)
  }
}
