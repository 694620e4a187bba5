#include <string>

#include "common/random.h"
#include "eval/evaluator.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"
#include "xml/tree_algos.h"
#include "xml/xml_parser.h"
#include "xml/xml_writer.h"

namespace xmlup {
namespace {

using testing_util::NewSymbols;
using testing_util::Xp;

class XmlIoTest : public ::testing::Test {
 protected:
  std::shared_ptr<SymbolTable> symbols_ = NewSymbols();
};

TEST_F(XmlIoTest, ParsesSelfClosingElement) {
  Result<Tree> t = ParseXml("<a/>", symbols_);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->size(), 1u);
  EXPECT_EQ(t->LabelName(t->root()), "a");
}

TEST_F(XmlIoTest, ParsesNestedElements) {
  Result<Tree> t = ParseXml("<a><b><c/></b><d/></a>", symbols_);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->size(), 4u);
  const std::vector<NodeId> kids = t->Children(t->root());
  ASSERT_EQ(kids.size(), 2u);
  EXPECT_EQ(t->LabelName(kids[0]), "b");
  EXPECT_EQ(t->LabelName(kids[1]), "d");
}

TEST_F(XmlIoTest, DiscardsAttributesAndText) {
  Result<Tree> t = ParseXml(
      "<book id=\"1\" lang='en'>  some text <title>XML</title></book>",
      symbols_);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->size(), 2u);
}

TEST_F(XmlIoTest, StrictModeRejectsAttributes) {
  XmlParseOptions options;
  options.ignore_attributes = false;
  Result<Tree> t = ParseXml("<a x=\"1\"/>", symbols_, options);
  EXPECT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kParseError);
}

TEST_F(XmlIoTest, StrictModeRejectsText) {
  XmlParseOptions options;
  options.ignore_text = false;
  EXPECT_FALSE(ParseXml("<a>hello</a>", symbols_, options).ok());
  // Whitespace-only content is fine even in strict mode.
  EXPECT_TRUE(ParseXml("<a>  \n  <b/> </a>", symbols_, options).ok());
}

TEST_F(XmlIoTest, SkipsPrologCommentsAndCdata) {
  const char* doc =
      "<?xml version=\"1.0\"?>\n"
      "<!DOCTYPE catalog>\n"
      "<!-- a comment -->\n"
      "<a><!-- inner --><![CDATA[ <junk/> ]]><b/></a>\n"
      "<!-- trailing -->";
  Result<Tree> t = ParseXml(doc, symbols_);
  ASSERT_TRUE(t.ok()) << t.status();
  EXPECT_EQ(t->size(), 2u);
}

TEST_F(XmlIoTest, RejectsMismatchedTags) {
  Result<Tree> t = ParseXml("<a><b></a></b>", symbols_);
  EXPECT_FALSE(t.ok());
  EXPECT_NE(t.status().message().find("mismatched"), std::string::npos);
}

TEST_F(XmlIoTest, RejectsTruncatedInput) {
  EXPECT_FALSE(ParseXml("<a><b/>", symbols_).ok());
  EXPECT_FALSE(ParseXml("<a", symbols_).ok());
  EXPECT_FALSE(ParseXml("", symbols_).ok());
}

TEST_F(XmlIoTest, RejectsTrailingContent) {
  EXPECT_FALSE(ParseXml("<a/><b/>", symbols_).ok());
}

TEST_F(XmlIoTest, ErrorsCarryLineInformation) {
  Result<Tree> t = ParseXml("<a>\n<b>\n</c>\n</a>", symbols_);
  ASSERT_FALSE(t.ok());
  EXPECT_NE(t.status().message().find("line 3"), std::string::npos);
}

TEST_F(XmlIoTest, WriteCompact) {
  Tree t = testing_util::Xml("<a><b><c/></b><d/></a>", symbols_);
  EXPECT_EQ(WriteXml(t), "<a><b><c/></b><d/></a>");
}

TEST_F(XmlIoTest, WriteIndented) {
  Tree t = testing_util::Xml("<a><b/></a>", symbols_);
  XmlWriteOptions options;
  options.indent = 2;
  EXPECT_EQ(WriteXml(t, options), "<a>\n  <b/>\n</a>\n");
}

TEST_F(XmlIoTest, WriteSubtree) {
  Tree t = testing_util::Xml("<a><b><c/></b></a>", symbols_);
  const NodeId b = t.first_child(t.root());
  EXPECT_EQ(WriteXml(t, b), "<b><c/></b>");
}

TEST_F(XmlIoTest, RoundTripPreservesStructure) {
  const std::string doc = "<r><x><y/><z><w/></z></x><x/></r>";
  Tree t1 = testing_util::Xml(doc, symbols_);
  Tree t2 = testing_util::Xml(WriteXml(t1), symbols_);
  EXPECT_TRUE(OrderedEqual(t1, t2));
  EXPECT_EQ(WriteXml(t2), doc);
}

TEST_F(XmlIoTest, FuzzedInputNeverCrashes) {
  // The parser must reject or accept arbitrary byte soup without crashing
  // or violating tree invariants.
  Rng rng(424242);
  const char charset[] = "<>/=\"' abAB!?-[]&;\n\t";
  for (int iter = 0; iter < 2000; ++iter) {
    std::string input;
    const size_t len = rng.NextBounded(60);
    for (size_t i = 0; i < len; ++i) {
      input += charset[rng.NextBounded(sizeof(charset) - 1)];
    }
    Result<Tree> t = ParseXml(input, symbols_);
    if (t.ok()) {
      EXPECT_TRUE(t->Validate().ok()) << "input: " << input;
    }
  }
}

TEST_F(XmlIoTest, MutatedValidDocumentsNeverCrash) {
  Rng rng(434343);
  const std::string base = "<a><b x='1'><c/></b><!--k--><d>t</d></a>";
  for (int iter = 0; iter < 2000; ++iter) {
    std::string input = base;
    const size_t flips = 1 + rng.NextBounded(4);
    for (size_t i = 0; i < flips; ++i) {
      input[rng.NextBounded(input.size())] =
          static_cast<char>(32 + rng.NextBounded(95));
    }
    Result<Tree> t = ParseXml(input, symbols_);
    if (t.ok()) {
      EXPECT_TRUE(t->Validate().ok()) << "input: " << input;
    }
  }
}

TEST_F(XmlIoTest, DeepNestingParses) {
  std::string doc;
  const int depth = 200;
  for (int i = 0; i < depth; ++i) doc += "<n>";
  doc += "<leaf/>";
  for (int i = 0; i < depth; ++i) doc += "</n>";
  Result<Tree> t = ParseXml(doc, symbols_);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->size(), static_cast<size_t>(depth + 1));
}

TEST_F(XmlIoTest, HundredThousandLevelsParseWriteAndReparse) {
  // Parser and writer keep explicit stacks, so depth is bounded by memory.
  // (CanonicalCode is quadratic on chains; OrderedEqual is not.)
  const int depth = 100000;
  std::string closing;
  for (int i = 0; i < depth; ++i) closing += "</a>";
  std::string text;
  for (int i = 0; i < depth; ++i) text += "<a>";
  text += closing;
  Result<Tree> t = ParseXml(text, symbols_);
  ASSERT_TRUE(t.ok()) << t.status();
  EXPECT_EQ(t->size(), static_cast<size_t>(depth));
  EXPECT_EQ(Evaluate(Xp("a//a", symbols_), *t).size(),
            static_cast<size_t>(depth - 1));
  Result<Tree> again = ParseXml(WriteXml(*t), symbols_);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_TRUE(OrderedEqual(*t, *again));
  // Without the innermost closing tag the input ends inside an element.
  Result<Tree> cut = ParseXml(
      text.substr(0, 3 * depth) + closing.substr(4), symbols_);
  ASSERT_FALSE(cut.ok());
  EXPECT_EQ(cut.status().code(), StatusCode::kParseError);
}

}  // namespace
}  // namespace xmlup
